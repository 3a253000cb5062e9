"""Command-line interface: exit codes, artifacts, argument validation."""

import argparse
import dataclasses
import json
import math
import types

import numpy as np
import pytest

import nlmc.semigroup
from nlmc import (
    GeneratorFileError,
    GeneratorSpec,
    constant_generator,
    corpus,
    generator_from_json,
    save_generator,
)
from nlmc.cli import MAX_GRID_POINTS, RunConfig, _grid, build_parser, main, reproduce


def _read_csv(path):
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


class TestCorpusList:
    def test_lists_all_builtin_generators(self, capsys):
        assert main(["corpus-list"]) == 0
        out = capsys.readouterr().out
        for name in ("bistable", "consumer", "oscillator"):
            assert f"{name}:" in out


class TestSimulate:
    def test_oscillator_returns_after_one_period(self, tmp_path):
        out = tmp_path / "orbit.csv"
        code = main(
            [
                "simulate",
                "--corpus",
                "oscillator",
                "--m0",
                "0.2,0.4,0.4",
                "--horizon",
                f"{2.0 * math.pi:.15f}",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        table = _read_csv(out)
        assert table.shape[1] == 4
        assert np.max(np.abs(table[-1, 1:] - table[0, 1:])) < 1e-4

    def test_default_artifact_name(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        code = main(
            ["simulate", "--corpus", "bistable", "--m0", "0.9,0.1", "--horizon", "1.0"]
        )
        assert code == 0
        assert (tmp_path / "trajectory.csv").exists()
        out = capsys.readouterr().out
        assert "wrote trajectory.csv" in out
        assert "final state:" in out

    def test_sample_every_controls_row_count(self, tmp_path):
        out = tmp_path / "coarse.csv"
        code = main(
            [
                "simulate",
                "--corpus",
                "bistable",
                "--m0",
                "0.9,0.1",
                "--horizon",
                "2.0",
                "--sample-every",
                "0.5",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        table = _read_csv(out)
        assert table.shape[0] == 5
        assert np.allclose(table[:, 0], [0.0, 0.5, 1.0, 1.5, 2.0])

    def test_m0_dimension_mismatch_fails(self, tmp_path, capsys):
        code = main(
            [
                "simulate",
                "--corpus",
                "bistable",
                "--m0",
                "0.2,0.3,0.5",
                "--horizon",
                "1.0",
                "--out",
                str(tmp_path / "x.csv"),
            ]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "2 states" in err

    def test_sample_refuses_an_m0_of_another_length_before_the_thinning_bound(
        self, tmp_path, capsys, monkeypatch
    ):
        def no_bound(spec):
            raise AssertionError("built the thinning bound before checking --m0")

        monkeypatch.setattr(nlmc.semigroup, "thinning_bound", no_bound)
        consumer = ["--corpus", "consumer", "--b", "1", "--e", "1", "--eps", "0.1", "--lambda", "1"]
        out = str(tmp_path / "p.csv")
        assert main(["sample", *consumer, "--m0", "0.5,0.5", "--horizon", "1", "--out", out]) == 1
        err = capsys.readouterr().err
        assert err == "error: m0 on 2 states does not match the generator's 3 states\n"

    def test_oversampled_run_is_refused_before_integrating(self, tmp_path, capsys, monkeypatch):
        # 1e6 / 1e-3 asks for 10^9 rows, about 8 GB per array.
        def no_integration(*args, **kwargs):
            raise AssertionError("integrated before checking the sample count")

        monkeypatch.setattr(nlmc.semigroup, "integrate_flow", no_integration)
        out = tmp_path / "huge.csv"
        code = main(
            [
                "simulate",
                "--corpus",
                "bistable",
                "--m0",
                "0.9,0.1",
                "--horizon",
                "1e6",
                "--sample-every",
                "1e-3",
                "--out",
                str(out),
            ]
        )
        assert code == 1
        assert not out.exists()
        err = capsys.readouterr().err
        assert "1000000001 samples" in err
        assert "cap 1000000" in err

    @pytest.mark.parametrize(
        "flag, value",
        [
            ("--rtol", "nan"),
            ("--atol", "nan"),
            ("--rtol", "inf"),
            ("--atol", "inf"),
            ("--sample-every", "nan"),
            ("--sample-every", "inf"),
        ],
    )
    def test_non_finite_controls_are_refused_before_integrating(
        self, flag, value, tmp_path, capsys, monkeypatch
    ):
        # A NaN tolerance rejected every step, up to a million of them.
        def no_integration(*args, **kwargs):
            raise AssertionError("integrated with a non-finite control")

        monkeypatch.setattr(nlmc.semigroup, "integrate_flow", no_integration)
        out = tmp_path / "x.csv"
        argv = ["simulate", "--corpus", "bistable", "--m0", "0.3,0.7", "--horizon", "5"]
        code = main([*argv, flag, value, "--out", str(out)])
        assert code == 1
        assert not out.exists()
        assert "positive and finite" in capsys.readouterr().err


class TestSample:
    def test_writes_jump_path_with_forced_start(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        code = main(
            [
                "sample",
                "--corpus",
                "bistable",
                "--m0",
                "0.9,0.1",
                "--horizon",
                "5.0",
                "--seed",
                "7",
                "--initial-state",
                "1",
            ]
        )
        assert code == 0
        lines = (tmp_path / "jump_path.csv").read_text(encoding="utf-8").splitlines()
        assert lines[0] == "t,state"
        assert lines[1] == "0,1"

    def test_seed_determinism_across_invocations(self, tmp_path):
        paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
        for path in paths:
            args = [
                "sample",
                "--corpus",
                "consumer",
                "--b",
                "1.0",
                "--e",
                "1.0",
                "--eps",
                "0.1",
                "--lambda",
                "1.0",
                "--m0",
                "0.3,0.3,0.4",
                "--horizon",
                "10.0",
                "--seed",
                "11",
                "--out",
                str(path),
            ]
            assert main(args) == 0
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_rejects_zero_initial_state(self, tmp_path, capsys):
        code = main(
            [
                "sample",
                "--corpus",
                "bistable",
                "--m0",
                "0.9,0.1",
                "--horizon",
                "1.0",
                "--initial-state",
                "0",
                "--out",
                str(tmp_path / "x.csv"),
            ]
        )
        assert code == 1

    def test_initial_state_out_of_range_is_named_one_based(self, tmp_path, capsys):
        out = tmp_path / "x.csv"
        argv = ["sample", "--corpus", "bistable", "--m0", "0.9,0.1", "--horizon", "1.0"]
        assert main([*argv, "--initial-state", "5", "--out", str(out)]) == 1
        assert not out.exists()
        assert "--initial-state must lie in 1..2, got 5" in capsys.readouterr().err

    def test_initial_state_draw_is_the_default(self, tmp_path):
        argv = ["sample", "--corpus", "bistable", "--m0", "0.4,0.6", "--horizon", "5.0"]
        drawn, default = tmp_path / "drawn.csv", tmp_path / "default.csv"
        assert main([*argv, "--initial-state", "draw", "--out", str(drawn)]) == 0
        assert main([*argv, "--out", str(default)]) == 0
        assert drawn.read_bytes() == default.read_bytes()

    def test_initial_state_text_is_a_usage_error(self, tmp_path, capsys):
        out = tmp_path / "x.csv"
        argv = ["sample", "--corpus", "bistable", "--m0", "0.9,0.1", "--horizon", "1.0"]
        assert main([*argv, "--initial-state", "two", "--out", str(out)]) == 1
        assert not out.exists()
        assert (
            "--initial-state must be a 1-based state index or 'draw', got 'two'"
            in capsys.readouterr().err
        )

    @pytest.mark.parametrize("command", ["simulate", "sample"])
    def test_one_state_generator_file_runs(self, command, tmp_path):
        gen_path = tmp_path / "one.json"
        gen_path.write_text(
            '{"format": "nlmc-generator", "version": 1, "dimension": 1, "cells": []}',
            encoding="utf-8",
        )
        out = tmp_path / "one.csv"
        argv = [command, "--generator-file", str(gen_path), "--m0", "1", "--horizon", "2"]
        assert main([*argv, "--out", str(out)]) == 0
        assert out.read_text(encoding="utf-8").splitlines()[1] == "0,1"

    def test_oversized_thinning_run_is_refused(self, tmp_path, capsys, monkeypatch):
        # Rates of 100 over 1e6 time units would hold about 1.1e8 proposals at once.
        def no_integration(*args, **kwargs):
            raise AssertionError("integrated before checking the proposal count")

        monkeypatch.setattr(nlmc.semigroup, "integrate_flow", no_integration)
        gen_path = tmp_path / "fast.json"
        save_generator(constant_generator([[-100.0, 100.0], [100.0, -100.0]]), gen_path)
        out = tmp_path / "path.csv"
        code = main(
            [
                "sample",
                "--generator-file",
                str(gen_path),
                "--m0",
                "0.5,0.5",
                "--horizon",
                "1e6",
                "--out",
                str(out),
            ]
        )
        assert code == 1
        assert not out.exists()
        err = capsys.readouterr().err
        assert "110000000 proposals" in err
        assert "cap 1000000" in err


class TestInvariant:
    def test_bistable_finds_three_distributions(self, tmp_path, capsys):
        out = tmp_path / "stationary.json"
        code = main(
            ["invariant", "--corpus", "bistable", "--grid", "20", "--out", str(out)]
        )
        assert code == 0
        doc = json.loads(out.read_text(encoding="utf-8"))
        points = sorted(r["point"][0] for r in doc["invariant_distributions"])
        assert len(points) == 3
        assert np.allclose(points, [0.25, 0.5, 0.75], atol=1e-8)
        stdout = capsys.readouterr().out
        assert "3 invariant distribution(s)" in stdout

    def test_artifact_is_deterministic(self, tmp_path):
        outs = [tmp_path / "first.json", tmp_path / "second.json"]
        for out in outs:
            args = [
                "invariant",
                "--corpus",
                "consumer",
                "--b",
                "1.0",
                "--e",
                "1.0",
                "--eps",
                "0.1",
                "--lambda",
                "1.0",
                "--grid",
                "8",
                "--out",
                str(out),
            ]
            assert main(args) == 0
        assert outs[0].read_bytes() == outs[1].read_bytes()


class TestCertifyCommands:
    CONSUMER_ARGS = ["--b", "1.0", "--e", "1.0", "--eps", "0.1", "--lambda", "1.0"]

    def test_certify_unique_consumer_exits_zero(self, tmp_path, capsys):
        out = tmp_path / "unique.json"
        code = main(
            ["certify-unique", "--corpus", "consumer"]
            + self.CONSUMER_ARGS
            + ["--grid", "12", "--out", str(out)]
        )
        assert code == 0
        doc = json.loads(out.read_text(encoding="utf-8"))
        assert doc["verdict"] == "CERTIFIED"
        stdout = capsys.readouterr().out
        assert "verdict: CERTIFIED" in stdout
        assert "margin:" in stdout

    def test_certify_unique_bistable_exits_two(self, tmp_path):
        out = tmp_path / "unique.json"
        code = main(
            ["certify-unique", "--corpus", "bistable", "--grid", "12", "--out", str(out)]
        )
        assert code == 2
        doc = json.loads(out.read_text(encoding="utf-8"))
        assert doc["verdict"] == "INCONCLUSIVE"

    def test_certify_ergodic_consumer_exits_zero(self, tmp_path):
        out = tmp_path / "ergodic.json"
        code = main(
            ["certify-ergodic", "--corpus", "consumer"]
            + self.CONSUMER_ARGS
            + ["--grid", "12", "--out", str(out)]
        )
        assert code == 0
        doc = json.loads(out.read_text(encoding="utf-8"))
        assert doc["verdict"] == "CERTIFIED"
        assert doc["claim"] == "strong-ergodicity"
        assert doc["evidence"]["uniqueness"] == "degree"

    def test_certify_ergodic_bistable_is_refuted(self, tmp_path):
        out = tmp_path / "ergodic.json"
        code = main(["certify-ergodic", "--corpus", "bistable", "--out", str(out)])
        assert code == 2
        doc = json.loads(out.read_text(encoding="utf-8"))
        assert doc["verdict"] == "REFUTED"
        assert len(doc["evidence"]["witnesses"]) == 3

    def test_certify_ergodic_bistable_is_refuted_at_the_finest_two_state_grid(self, tmp_path):
        out = tmp_path / "ergodic.json"
        args = ["certify-ergodic", "--corpus", "bistable", "--grid", "20300", "--out", str(out)]
        code = main(args)
        assert code == 2
        doc = json.loads(out.read_text(encoding="utf-8"))
        assert doc["verdict"] == "REFUTED"
        assert doc["evidence"]["grid_resolution"] == 20300
        roots = doc["evidence"]["roots"]
        assert len(roots) == 3
        assert all(abs(r - root) <= 1e-12 for r, root in zip(roots, (0.25, 0.5, 0.75)))

    def test_certify_ergodic_oscillator_is_refuted(self, tmp_path):
        out = tmp_path / "ergodic.json"
        code = main(
            ["certify-ergodic", "--corpus", "oscillator", "--grid", "6", "--out", str(out)]
        )
        assert code == 2
        doc = json.loads(out.read_text(encoding="utf-8"))
        assert doc["verdict"] == "REFUTED"
        assert doc["evidence"]["uniqueness"] == "search"

    @pytest.mark.parametrize("flag, name, value", [("--b", "b", "nan"), ("--lambda", "lam", "inf")])
    def test_a_non_finite_consumer_parameter_is_named(self, flag, name, value, tmp_path, capsys):
        # It once surfaced as the internal cell it fed, "cell (0, 1) term 0".
        args = ["certify-unique", "--corpus", "consumer", *self.CONSUMER_ARGS, flag, value]
        out = tmp_path / "unique.json"
        assert main([*args, "--grid", "4", "--out", str(out)]) == 1
        assert not out.exists()
        (line,) = [line for line in capsys.readouterr().err.splitlines() if line.startswith("error:")]
        assert f"parameter {name} " in line and "positive and finite" in line
        assert "cell (" not in line


class TestGeneratorFile:
    def test_saved_generator_round_trips_through_the_cli(self, tmp_path):
        gen_path = tmp_path / "bistable.json"
        save_generator(corpus("bistable"), gen_path)
        out = tmp_path / "stationary.json"
        code = main(
            [
                "invariant",
                "--generator-file",
                str(gen_path),
                "--grid",
                "20",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        doc = json.loads(out.read_text(encoding="utf-8"))
        assert len(doc["invariant_distributions"]) == 3

    def test_malformed_file_exits_one(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json", encoding="utf-8")
        code = main(
            ["invariant", "--generator-file", str(bad), "--out", str(tmp_path / "o.json")]
        )
        assert code == 1
        assert capsys.readouterr().err.startswith("error:")

    def test_boolean_dimension_exits_one(self, tmp_path, capsys):
        # "dimension": true used to pass as 1 and fail deep in the rate table.
        bad = tmp_path / "bad.json"
        bad.write_text(
            '{"format": "nlmc-generator", "version": 1, "dimension": true, "cells": []}',
            encoding="utf-8",
        )
        out = tmp_path / "o.json"
        code = main(["invariant", "--generator-file", str(bad), "--out", str(out)])
        assert code == 1
        assert capsys.readouterr().err.startswith("error:")
        assert not out.exists()

    def test_a_huge_integer_coefficient_is_refused_on_every_path(self, tmp_path, capsys):
        # float() of a 400-digit integer overflows; that escaped as an OverflowError traceback.
        with pytest.raises(ValueError, match=r"cell \(0, 1\) term 0: coefficient"):
            GeneratorSpec(2, cells={(0, 1): [((0, 0), 10**400)]})
        text = (
            '{"format": "nlmc-generator", "version": 1, "dimension": 2, "cells": '
            '[{"from": 1, "to": 2, "terms": [{"exponents": [0, 0], "coefficient": 1'
            + "0" * 400
            + "}]}]}"
        )
        with pytest.raises(GeneratorFileError, match=r"cells\[0\]\.terms\[0\]: coefficient"):
            generator_from_json(text)
        bad = tmp_path / "huge.json"
        bad.write_text(text, encoding="utf-8")
        out = tmp_path / "o.json"
        assert main(["invariant", "--generator-file", str(bad), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: cells[0].terms[0]") and "Traceback" not in err
        assert not out.exists()

    def test_empty_two_state_file_is_refuted_with_capped_roots(self, tmp_path):
        gen_path = tmp_path / "still.json"
        gen_path.write_text(
            '{"format": "nlmc-generator", "version": 1, "dimension": 2, "cells": []}',
            encoding="utf-8",
        )
        out = tmp_path / "ergodic.json"
        code = main(["certify-ergodic", "--generator-file", str(gen_path), "--out", str(out)])
        assert code == 2
        doc = json.loads(out.read_text(encoding="utf-8"))
        assert doc["verdict"] == "REFUTED"
        assert doc["evidence"]["root_count"] > 5
        assert len(doc["evidence"]["roots"]) == len(doc["evidence"]["witnesses"]) == 5

    def test_a_negative_rate_file_is_refused_by_its_description(self, tmp_path, capsys):
        gen_path = tmp_path / "leak.json"
        gen_path.write_text(
            '{"format": "nlmc-generator", "version": 1, "dimension": 2, "cells": '
            '[{"from": 1, "to": 2, "terms": [{"exponents": [1, 0], "coefficient": -1.0}]}]}',
            encoding="utf-8",
        )
        out = tmp_path / "o.json"
        code = main(["invariant", "--generator-file", str(gen_path), "--out", str(out)])
        assert code == 1
        assert not out.exists()
        err = capsys.readouterr().err
        assert "polynomial generator on 2 states is not conservative" in err

    def test_four_state_ergodicity_is_refused(self, tmp_path, capsys):
        gen_path = tmp_path / "four.json"
        save_generator(constant_generator(np.ones((4, 4)) - 4.0 * np.eye(4)), gen_path)
        out = tmp_path / "ergodic.json"
        code = main(["certify-ergodic", "--generator-file", str(gen_path), "--out", str(out)])
        assert code == 1
        assert not out.exists()
        assert "ergodicity certificates support 2 or 3 states, not 4" in capsys.readouterr().err

    def test_missing_file_exits_one(self, tmp_path, capsys):
        code = main(
            [
                "invariant",
                "--generator-file",
                str(tmp_path / "absent.json"),
                "--out",
                str(tmp_path / "o.json"),
            ]
        )
        assert code == 1
        assert capsys.readouterr().err.startswith("error:")

    def test_grid_over_the_point_cap_is_refused(self, tmp_path, capsys):
        # Resolution 40 on 8 states would materialise C(47, 7) = 62 891 499 seeds.
        q = np.ones((8, 8))
        np.fill_diagonal(q, -7.0)
        gen_path = tmp_path / "eight.json"
        save_generator(constant_generator(q), gen_path)
        out = tmp_path / "stationary.json"
        code = main(
            ["invariant", "--generator-file", str(gen_path), "--grid", "40", "--out", str(out)]
        )
        assert code == 1
        assert not out.exists()
        err = capsys.readouterr().err
        assert "62891499 points" in err
        assert str(MAX_GRID_POINTS) in err

    def test_point_cap_admits_the_finest_three_state_grid(self):
        spec = corpus("consumer", {"b": 1.0, "e": 1.0, "eps": 0.1, "lam": 1.0})
        config = RunConfig(command="invariant", corpus_name="consumer", grid_resolution=200)
        assert len(_grid(spec, config)) == MAX_GRID_POINTS == 20301

    def test_point_cap_admits_the_finest_two_state_grid(self):
        config = RunConfig(command="certify-ergodic", corpus_name="bistable", grid_resolution=20300)
        assert len(_grid(corpus("bistable"), config)) == MAX_GRID_POINTS
        finer = dataclasses.replace(config, grid_resolution=20301)
        with pytest.raises(ValueError, match="^--grid 20301 on 2 states has at least 20302 points"):
            _grid(corpus("bistable"), finer)

    def test_a_three_state_grid_of_500_is_refused_by_the_point_cap(self, tmp_path, capsys):
        out = tmp_path / "ergodic.json"
        consumer = ["--corpus", "consumer", "--b", "1", "--e", "1", "--eps", "0.1", "--lambda", "1"]
        assert main(["certify-ergodic", *consumer, "--grid", "500", "--out", str(out)]) == 1
        assert not out.exists()
        (line,) = capsys.readouterr().err.splitlines()
        assert line == "error: --grid 500 on 3 states has at least 125751 points, over 20301"

    def test_a_vast_grid_is_refused_before_its_count_is_taken(self):
        # C(2 * 10**6 - 1, 10**6 - 1) has about 600 000 digits; k + S - 1 already passes the cap.
        config = RunConfig(command="invariant", corpus_name="bistable", grid_resolution=10**6)
        with pytest.raises(ValueError, match="has at least 1999999 points, over 20301$"):
            _grid(types.SimpleNamespace(dimension=10**6), config)


class TestUsageErrors:
    def test_unknown_corpus_name(self, capsys):
        assert main(["invariant", "--corpus", "pendulum"]) == 1
        capsys.readouterr()

    def test_missing_m0(self, capsys):
        assert main(["simulate", "--corpus", "bistable", "--horizon", "1.0"]) == 1
        capsys.readouterr()

    def test_conflicting_generator_sources(self, tmp_path, capsys):
        assert (
            main(
                [
                    "invariant",
                    "--corpus",
                    "bistable",
                    "--generator-file",
                    str(tmp_path / "g.json"),
                ]
            )
            == 1
        )
        capsys.readouterr()

    def test_corpus_params_require_corpus_flag(self, tmp_path, capsys):
        gen_path = tmp_path / "bistable.json"
        save_generator(corpus("bistable"), gen_path)
        code = main(
            [
                "invariant",
                "--generator-file",
                str(gen_path),
                "--b",
                "1.0",
                "--out",
                str(tmp_path / "o.json"),
            ]
        )
        assert code == 1
        assert "corpus" in capsys.readouterr().err

    def test_consumer_requires_all_parameters(self, tmp_path, capsys):
        code = main(
            [
                "invariant",
                "--corpus",
                "consumer",
                "--b",
                "1.0",
                "--out",
                str(tmp_path / "o.json"),
            ]
        )
        assert code == 1
        assert capsys.readouterr().err.startswith("error:")

    def test_malformed_m0_string(self, tmp_path, capsys):
        code = main(
            [
                "simulate",
                "--corpus",
                "bistable",
                "--m0",
                "0.5,x",
                "--horizon",
                "1.0",
                "--out",
                str(tmp_path / "x.csv"),
            ]
        )
        assert code == 1
        capsys.readouterr()

    def test_missing_subcommand(self, capsys):
        assert main([]) == 1
        capsys.readouterr()


class TestParser:
    # The option strings of each subcommand besides -h and --help.
    OPTIONS = {
        "simulate": "--corpus --generator-file --b --e --eps --lambda --m0 --horizon"
        " --rtol --atol --sample-every --out",
        "sample": "--corpus --generator-file --b --e --eps --lambda --m0 --horizon"
        " --seed --initial-state --out",
        "invariant": "--corpus --generator-file --b --e --eps --lambda --grid --out",
        "certify-unique": "--corpus --generator-file --b --e --eps --lambda --grid --out",
        "certify-ergodic": "--corpus --generator-file --b --e --eps --lambda --grid --out",
        "corpus-list": "",
        "reproduce": "figure --outdir",
    }

    def test_each_subcommand_takes_its_options(self):
        parser = build_parser()
        (sub,) = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        taken = {
            name: sorted(s for a in p._actions for s in (a.option_strings or [a.dest]))
            for name, p in sub.choices.items()
        }
        assert taken == {
            name: sorted(["-h", "--help", *opts.split()]) for name, opts in self.OPTIONS.items()
        }


class TestSingleSubcommandParser:
    @staticmethod
    def _subparsers(parser):
        (sub,) = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        return sub.choices

    @staticmethod
    def _actions(p):
        return [
            (a.option_strings, a.dest, a.type, a.choices, a.default, a.help) for a in p._actions
        ]

    @pytest.mark.parametrize("command", TestParser.OPTIONS)
    def test_builds_the_same_subparser_as_the_full_parser(self, command):
        built = self._subparsers(build_parser(command))
        assert list(built) == [command]
        alone, full = built[command], self._subparsers(build_parser())[command]
        assert self._actions(alone) == self._actions(full)
        assert alone._defaults == full._defaults

    @pytest.mark.parametrize(
        "argv",
        [
            [],
            ["bogus"],
            ["--help"],
            ["simulate", "--help"],
            ["simulate", "--horizon", "x"],
            ["simulate", "--corpus", "bistable", "extra"],
        ],
        ids=repr,
    )
    def test_main_prints_what_the_full_parser_prints(self, argv, capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", "100")
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(argv)
        expected = (exc.value.code, *capsys.readouterr())
        assert (main(argv), *capsys.readouterr()) == expected


class TestRunConfigValidation:
    def test_generator_commands_need_exactly_one_source(self):
        with pytest.raises(ValueError):
            RunConfig("invariant")
        with pytest.raises(ValueError):
            RunConfig("invariant", corpus_name="bistable", generator_file="g.json")
        with pytest.raises(ValueError):
            RunConfig("corpus-list", corpus_name="bistable")

    def test_simulate_requires_m0_and_horizon(self):
        with pytest.raises(ValueError):
            RunConfig("simulate", corpus_name="bistable", horizon=1.0)
        with pytest.raises(ValueError):
            RunConfig("simulate", corpus_name="bistable", m0=(0.5, 0.5))

    def test_numeric_bounds(self):
        base = dict(corpus_name="bistable", m0=(0.5, 0.5), horizon=1.0)
        with pytest.raises(ValueError):
            RunConfig("simulate", horizon=0.0, corpus_name="bistable", m0=(0.5, 0.5))
        with pytest.raises(ValueError):
            RunConfig("simulate", horizon=2e6, corpus_name="bistable", m0=(0.5, 0.5))
        with pytest.raises(ValueError):
            RunConfig("simulate", rtol=0.0, **base)
        with pytest.raises(ValueError):
            RunConfig("simulate", sample_every=0.0, **base)
        for field in ("rtol", "atol", "sample_every"):
            with pytest.raises(ValueError, match="positive and finite"):
                RunConfig("simulate", **{field: math.nan}, **base)
        with pytest.raises(ValueError, match="grid resolution must be at least 1"):
            RunConfig("invariant", corpus_name="bistable", grid_resolution=0)
        with pytest.raises(TypeError):
            RunConfig("certify-unique", corpus_name="bistable", fd_step=0.5)
        with pytest.raises(ValueError):
            RunConfig("sample", seed=-1, **base)
        with pytest.raises(ValueError):
            RunConfig("reproduce", figure="fig3")
        with pytest.raises(ValueError, match="unknown command"):
            RunConfig("bogus")


class TestReproduce:
    def test_fig1_orbit_oscillates_about_the_center(self, tmp_path):
        paths = reproduce("fig1", str(tmp_path))
        assert len(paths) == 1
        table = _read_csv(tmp_path / "fig1.csv")
        assert table.shape[1] == 4
        masses = table[:, 1:]
        assert np.max(np.abs(masses.sum(axis=1) - 1.0)) < 1e-9
        m1 = masses[:, 0]
        assert float(m1.max()) > 0.44
        assert float(m1.min()) < 0.22
        assert abs(float(m1.mean()) - 1.0 / 3.0) < 5e-3

    def test_fig2_runs_split_across_the_unstable_point(self, tmp_path, monkeypatch):
        calls = []
        original = nlmc.semigroup.integrate_flow

        def counting(spec, m0, horizon, **kwargs):
            calls.append(len(m0))
            return original(spec, m0, horizon, **kwargs)

        monkeypatch.setattr(nlmc.semigroup, "integrate_flow", counting)
        code = main(["reproduce", "fig2", "--outdir", str(tmp_path)])
        assert code == 0
        assert calls == [8], "fig2 integrates its eight starts in one call"
        summary = json.loads((tmp_path / "fig2_summary.json").read_text(encoding="utf-8"))
        assert summary["horizon"] == 50.0
        runs = {run["start"]: run for run in summary["runs"]}
        assert len(runs) == 8
        for start, run in runs.items():
            expected = 0.25 if start < 0.5 else 0.75
            assert run["limit"] == expected
            assert abs(run["final_m1"] - expected) < 1e-4
            csv_path = tmp_path / f"fig2_{start:g}.csv"
            assert csv_path.exists()
            table = _read_csv(csv_path)
            assert table[0, 1] == pytest.approx(start, abs=1e-12)
            assert table[-1, 0] == pytest.approx(50.0, abs=1e-9)
