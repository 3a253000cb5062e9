"""Command-line front end: simulate, sample, search, certify, reproduce figures.

Each flag is declared once, in ``_FLAGS``; ``_COMMANDS`` lists the flags of
each subcommand.  ``main`` builds the parser from the two on every call, with
only the invoked subcommand's flags (all seven for none, an unknown one or -h).
The parser only converts text: ``RunConfig`` holds every default except
``invariant``'s grid of 20, and every check that needs no generator.  Every
simplex sweep, at any state count, takes ``--grid``, capped in points by ``_grid``.

Exit codes: 0 for success (including CERTIFIED verdicts), 2 when a
certificate comes back INCONCLUSIVE or REFUTED, 1 for any error.  Given
the same arguments (including seed), every run writes byte-identical
artifacts.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass, field

from .certify import certify_ergodic_2, certify_ergodic_3, certify_unique
from .errors import NlmcError
from .generator import (
    CONSUMER_PARAMS,
    CORPUS_NAMES,
    CORPUS_SUMMARY,
    GeneratorSpec,
    corpus,
    load_generator,
)
from .semigroup import (
    ATOL, RTOL, _check_horizon, _check_sample_every, _check_seed, _check_tolerances, evolve,
    sample_path,
)
from .simplex import SimplexGrid, _write_text
from .stationary import find_invariant

MAX_GRID_POINTS = 20_301  # C(202, 2): resolution 200 on three states, 20 300 on two

_DEFAULT_OUT = {
    "simulate": "trajectory.csv",
    "sample": "jump_path.csv",
    "invariant": "stationary_set.json",
    "certify-unique": "certificate_unique.json",
    "certify-ergodic": "certificate_ergodic.json",
}

FIGURES = ("fig1", "fig2")
_FIG2_STARTS = (0.05, 0.2, 0.3, 0.45, 0.55, 0.6, 0.7, 0.9)
_FIG2_HORIZON = 50.0
_FIG2_LIMITS = (0.25, 0.75)


@dataclass(frozen=True)
class RunConfig:
    """Validated bundle of one CLI invocation, with every default of the CLI."""

    command: str
    corpus_name: str | None = None
    corpus_params: dict = field(default_factory=dict)
    generator_file: str | None = None
    m0: tuple[float, ...] | None = None
    horizon: float | None = None
    rtol: float = RTOL
    atol: float = ATOL
    sample_every: float | None = None
    grid_resolution: int = 40
    seed: int = 0
    initial_state: int | None = None
    out: str | None = None
    outdir: str = "."
    figure: str | None = None

    def __post_init__(self) -> None:
        if self.command not in _COMMANDS:
            raise ValueError(f"unknown command {self.command!r}")
        # Exactly the commands that write a default artifact read a generator.
        needs_generator = self.command in _DEFAULT_OUT
        sources = (self.corpus_name is not None) + (self.generator_file is not None)
        if needs_generator and sources != 1:
            raise ValueError("exactly one of --corpus or --generator-file is required")
        if not needs_generator and sources:
            raise ValueError(f"{self.command} takes no generator source")
        if self.corpus_params and self.corpus_name is None:
            raise ValueError("corpus parameters require --corpus")
        if self.command in ("simulate", "sample"):
            if self.m0 is None:
                raise ValueError(f"{self.command} requires --m0")
            if self.horizon is None:
                raise ValueError(f"{self.command} requires --horizon")
        if self.horizon is not None:
            _check_horizon(self.horizon)
        _check_sample_every(self.sample_every)
        _check_tolerances(self.rtol, self.atol)
        if self.grid_resolution < 1:
            raise ValueError(f"grid resolution must be at least 1, got {self.grid_resolution}")
        _check_seed(self.seed)
        if self.command == "reproduce" and self.figure not in FIGURES:
            raise ValueError(f"reproduce requires a figure: {' or '.join(FIGURES)}")


def _load_spec(config: RunConfig) -> GeneratorSpec:
    if config.generator_file is not None:
        return load_generator(config.generator_file)
    return corpus(config.corpus_name, config.corpus_params)


def _grid(spec: GeneratorSpec, config: RunConfig) -> SimplexGrid:
    """The run's simplex grid, refused when it has more than ``MAX_GRID_POINTS`` points; its
    count C(k + S - 1, S - 1) >= k + S - 1 for S > 1 is taken only below that bound."""
    k, s = config.grid_resolution, spec.dimension
    least = k + s - 1 if s > 1 else 1
    count = least if least > MAX_GRID_POINTS else math.comb(k + s - 1, s - 1)
    if count > MAX_GRID_POINTS:
        raise ValueError(
            f"--grid {k} on {s} states has at least {count} points, over {MAX_GRID_POINTS}"
        )
    return SimplexGrid(s, k)


def run(config: RunConfig) -> int:
    """Execute one validated CLI invocation; returns the process exit code."""
    if config.command == "corpus-list":
        for name in CORPUS_NAMES:
            print(f"{name}: {CORPUS_SUMMARY[name]}")
        return 0
    if config.command == "reproduce":
        for path in reproduce(config.figure, config.outdir):
            print(f"wrote {path}")
        return 0

    spec = _load_spec(config)
    out = config.out or _DEFAULT_OUT[config.command]

    if config.command == "simulate":
        trajectory = evolve(
            spec, config.m0, config.horizon, rtol=config.rtol, atol=config.atol,
            sample_every=config.sample_every,
        )
        trajectory.to_csv(out)
        final = ", ".join(f"{x:.12g}" for x in trajectory.final.probs)
        print(f"wrote {out} ({len(trajectory)} samples)")
        print(f"final state: ({final})")
        return 0

    if config.command == "sample":
        s = spec.dimension  # sample_path checks --m0; this check speaks 1-based
        if config.initial_state is not None and not 0 <= config.initial_state < s:
            raise ValueError(f"--initial-state must lie in 1..{s}, got {config.initial_state + 1}")
        path = sample_path(
            spec, config.m0, initial_state=config.initial_state, horizon=config.horizon,
            seed=config.seed,
        )
        path.to_csv(out)
        print(f"wrote {out} ({path.jump_count} jumps, seed {config.seed})")
        return 0

    if config.command == "invariant":
        found = find_invariant(spec, _grid(spec, config))
        found.to_json(out)
        for result in found:
            point = ", ".join(f"{x:.12g}" for x in result.point.probs)
            print(
                f"({point})  residual={result.residual:.3e}  {result.classification}"
            )
        print(
            f"wrote {out} ({len(found)} invariant distribution(s) from "
            f"{found.seed_count} seeds)"
        )
        return 0

    if config.command == "certify-unique":
        certify = certify_unique
    else:
        certify = {2: certify_ergodic_2, 3: certify_ergodic_3}.get(spec.dimension)
    if certify is None:
        raise ValueError(f"ergodicity certificates support 2 or 3 states, not {spec.dimension}")

    certificate = certify(spec, _grid(spec, config))
    certificate.to_json(out)
    print(f"verdict: {certificate.verdict}")
    print(f"reason: {certificate.reason}")
    if "margin" in certificate.evidence:
        print(f"margin: {certificate.evidence['margin']:.6e}")
    print(f"wrote {out}")
    return 0 if certificate.certified else 2


def reproduce(figure: str, outdir: str = ".") -> list[str]:
    """Regenerate the trajectory artifacts behind the two reference figures.

    ``fig1`` is the oscillating three-state flow from (0.2, 0.4, 0.4) over
    two periods; ``fig2`` is the two-state bistable flow from eight starting
    points over horizon 50, with a JSON summary of the limit each one
    reaches.
    """
    os.makedirs(outdir, exist_ok=True)
    if figure == "fig1":
        path = os.path.join(outdir, "fig1.csv")
        evolve(corpus("oscillator"), (0.2, 0.4, 0.4), 4.0 * math.pi).to_csv(path)
        return [path]
    if figure == "fig2":
        spec = corpus("bistable")
        runs, written = [], []
        starts = [(start, 1.0 - start) for start in _FIG2_STARTS]
        trajectories = evolve(spec, starts, _FIG2_HORIZON)
        for start, trajectory in zip(_FIG2_STARTS, trajectories):
            path = os.path.join(outdir, f"fig2_{start:g}.csv")
            trajectory.to_csv(path)
            written.append(path)
            final = float(trajectory.final.probs[0])
            limit = min(_FIG2_LIMITS, key=lambda target: abs(final - target))
            runs.append({"start": start, "final_m1": final, "limit": limit})
        summary = os.path.join(outdir, "fig2_summary.json")
        _write_text(
            summary,
            json.dumps({"horizon": _FIG2_HORIZON, "runs": runs}, indent=2, sort_keys=True) + "\n",
        )
        written.append(summary)
        return written
    raise ValueError(f"unknown figure {figure!r}; choose {' or '.join(FIGURES)}")


class _Parser(argparse.ArgumentParser):
    """ArgumentParser whose usage errors exit 1 (2 is reserved for verdicts)."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _parse_m0(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(part) for part in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"--m0 must be comma-separated numbers, got {text!r}")


def _parse_initial_state(text: str):
    if text == "draw":
        return None
    try:
        return int(text) - 1
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"--initial-state must be a 1-based state index or 'draw', got {text!r}"
        )


# Every argument of every subcommand, declared once.  ``dest`` names the
# RunConfig field an argument fills, except for the consumer parameters,
# whose dests are ``CONSUMER_PARAMS`` and go to ``corpus_params``.  No entry
# sets a default.
_FLAGS = {
    "--corpus": dict(dest="corpus_name", choices=CORPUS_NAMES, help="built-in generator name"),
    "--generator-file": dict(help="path to a generator JSON file"),
    "--b": dict(type=float, help="consumer: browse-to-hold rate"),
    "--e": dict(type=float, help="consumer: crowd pressure coefficient"),
    "--eps": dict(type=float, help="consumer: baseline purchase rate"),
    "--lambda": dict(dest="lam", type=float, help="consumer: restart rate"),
    "--m0": dict(type=_parse_m0, help="initial distribution, comma-separated (required)"),
    "--horizon": dict(type=float, help="time to integrate or sample up to (required)"),
    "--rtol": dict(type=float),
    "--atol": dict(type=float),
    "--sample-every": dict(type=float),
    "--seed": dict(type=int),
    "--initial-state": dict(
        type=_parse_initial_state,
        help="1-based starting state, or 'draw' to sample it from m0 (default)",
    ),
    "--grid": dict(dest="grid_resolution", type=int),
    "--out": {},
    "--outdir": {},
    "figure": dict(choices=FIGURES),
}

_GENERATOR_FLAGS = "--corpus --generator-file --b --e --eps --lambda"

# Each subcommand: its help line and the arguments it takes, in help order.
_COMMANDS = {
    "simulate": ("integrate the marginal flow and export CSV",
                 f"{_GENERATOR_FLAGS} --m0 --horizon --rtol --atol --sample-every --out"),
    "sample": ("sample one jump path and export CSV",
               f"{_GENERATOR_FLAGS} --m0 --horizon --seed --initial-state --out"),
    "invariant": ("search for invariant distributions", f"{_GENERATOR_FLAGS} --grid --out"),
    "certify-unique": ("certify uniqueness of the invariant distribution",
                       f"{_GENERATOR_FLAGS} --grid --out"),
    "certify-ergodic": ("certify strong ergodicity (2 or 3 states)",
                        f"{_GENERATOR_FLAGS} --grid --out"),
    "corpus-list": ("list built-in generators", ""),
    "reproduce": ("regenerate reference-figure artifacts", "figure --outdir"),
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The ``nlmc`` parser, with only ``command``'s subparser when it names one."""
    chosen = {command: _COMMANDS[command]} if command in _COMMANDS else _COMMANDS
    parser = _Parser(
        prog="nlmc",
        description=(
            "Analyze continuous-time nonlinear Markov chains on finite state "
            "spaces: integrate marginal flows, sample jump paths, locate "
            "invariant distributions, and emit numerical certificates."
        ),
    )
    # One subparser's usage still names all seven; the full parser keeps argparse's own.
    metavar = "{" + ",".join(_COMMANDS) + "}" if len(chosen) == 1 else None
    sub = parser.add_subparsers(dest="command", required=True, metavar=metavar)
    for name, (help_text, flags) in chosen.items():
        p = sub.add_parser(name, help=help_text)
        for flag in flags.split():
            p.add_argument(flag, **_FLAGS[flag])
    if "invariant" in sub.choices:
        sub.choices["invariant"].set_defaults(grid_resolution=20)
    return parser


def _config_from(args: argparse.Namespace) -> RunConfig:
    """The RunConfig of parsed arguments; flags left out keep RunConfig's defaults."""
    given = {key: value for key, value in vars(args).items() if value is not None}
    params = {key: given.pop(key) for key in CONSUMER_PARAMS if key in given}
    return RunConfig(**given, corpus_params=params)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = build_parser(argv[0] if argv else None).parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return int(code) if code is not None else 0
    try:
        return run(_config_from(args))
    except (NlmcError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
