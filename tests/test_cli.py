"""CLI contract: exit codes, formats, determinism, thin-adapter property."""

import json
import math
import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import anisomp as a
from anisomp.cli import _parse_grid, _unit_vector, main
from anisomp.io import read_matrix, write_matrix


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


class TestHelp:
    @pytest.mark.parametrize(
        "cmd", ["mp-law", "clt-kernel", "estimate", "sphericity", "reproduce"]
    )
    def test_help_exits_zero_and_lists_flags(self, cmd, capsys):
        with pytest.raises(SystemExit) as exc:
            main([cmd, "--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        assert "--" in out

    def test_unknown_command_exits_two(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2


class TestParserReuse:
    """``build_parser`` is built once per process and every call parses afresh."""

    def test_calls_in_one_process_match_calls_alone(self, tmp_path, capsys):
        from anisomp import cli

        spec = tmp_path / "spec.txt"
        a.write_spectrum_file(spec, a.PopulationSpectrum((4.0,) * 3 + (1.0,) * 9, 0.3))
        calls = [
            ["mp-law", "--identity", "--d", "0.5", "--edges-only", "--N", "10"],
            ["clt-kernel", "--identity", "--d", "0.5", "--n", "4", "--E", "4.0", "--kappa", "1.5"],
            ["mp-law", "--spectrum", str(spec), "--grid", "1.0:0.5:3.0"],
        ]
        alone = []
        for argv in calls:
            cli.build_parser.cache_clear()
            alone.append(run_cli(argv, capsys))
        cli.build_parser.cache_clear()
        together = [run_cli(argv, capsys) for argv in calls]
        assert cli.build_parser.cache_info().misses == 1
        assert together == alone
        assert together[2][1].startswith("E,rho2c,re_m,im_m\n")
        args = cli.build_parser().parse_args(calls[2])
        assert (args.identity, args.d, args.N, args.edges_only) == (False, None, None, False)
        cli.build_parser.cache_clear()
        assert vars(cli.build_parser().parse_args(calls[2])) == vars(args)


class TestMpLaw:
    def test_grid_row_values(self, capsys):
        code, out, _ = run_cli(
            ["mp-law", "--identity", "--d", "0.5", "--grid", "1.0:0.5:2.0"], capsys
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "E,rho2c,re_m,im_m"
        first = lines[1].split(",")
        assert float(first[0]) == 1.0
        assert float(first[1]) == pytest.approx(math.sqrt(1.75) / (2 * math.pi), abs=1e-9)

    def test_edges_only(self, capsys):
        code, out, _ = run_cli(["mp-law", "--identity", "--d", "0.5", "--edges-only"], capsys)
        assert code == 0
        data = json.loads(out)
        assert data["edges"][0] == pytest.approx(2.9142135624, abs=1e-8)
        assert data["edges"][1] == pytest.approx(0.0857864376, abs=1e-8)

    def test_edges_with_counts(self, capsys):
        code, out, _ = run_cli(
            ["mp-law", "--identity", "--d", "0.5", "--edges-only", "--N", "10"], capsys
        )
        data = json.loads(out)
        assert set(data) == {"edges", "bulk_counts", "gamma"}
        assert len(data["gamma"]) == 5

    def test_missing_file_exit_two(self, tmp_path, capsys):
        out_file = tmp_path / "out.csv"
        code, _, err = run_cli(
            ["mp-law", "--spectrum", str(tmp_path / "nope.txt"), "--grid", "1:1:2",
             "--out", str(out_file)],
            capsys,
        )
        assert code == 2
        assert not out_file.exists()

    def test_spectrum_file_route(self, tmp_path, capsys):
        pop = a.PopulationSpectrum((1.0,) * 4, 0.5)
        path = tmp_path / "spec.txt"
        a.write_spectrum_file(path, pop)
        code, out, _ = run_cli(["mp-law", "--spectrum", str(path), "--edges-only"], capsys)
        assert code == 0


    def test_grid_csv_is_per_point_solve_and_density(self, tmp_path, capsys):
        out_file = tmp_path / "grid.csv"
        code, _, _ = run_cli(
            ["mp-law", "--identity", "--d", "0.5", "--grid", "0.02:0.07:3.8",
             "--out", str(out_file)],
            capsys,
        )
        assert code == 0
        pop = a.PopulationSpectrum.identity(50, 0.5)  # --n defaults to d * 100
        lines = ["E,rho2c,re_m,im_m"]
        for E in 0.02 + 0.07 * np.arange(55):  # both edges lie inside the grid
            m = a.solve_m2c(complex(E, 0.0), pop).m
            rho = a.density_rho2c(E, pop)
            lines.append(f"{E:.12g},{rho:.12g},{m.real:.12g},{m.imag:.12g}")
        assert out_file.read_text() == "\n".join(lines) + "\n"

    @pytest.mark.parametrize("eta", ["0", "2"])
    def test_grid_makes_no_scalar_solves(self, eta, monkeypatch, capsys):
        from anisomp import cli, mp_law

        calls = []
        real = mp_law.solve_m2c

        def counted(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        for module in (mp_law, cli):
            monkeypatch.setattr(module, "solve_m2c", counted, raising=False)
        code, out, _ = run_cli(
            ["mp-law", "--identity", "--d", "0.5", "--grid", "0.02:0.07:3.8", "--eta", eta],
            capsys,
        )
        assert code == 0
        assert len(out.strip().splitlines()) == 56
        assert calls == []

    @pytest.mark.parametrize(
        "argv, code",
        [
            (["--identity", "--d", "0.5", "--grid", "0:0.5:1"], 4),  # E = 0 < omega
            (["--identity", "--d", "1.0", "--edges-only", "--N", "10"], 2),  # |d - 1| < tau
            (["--identity", "--d", "0.5", "--grid", "1:0:2"], 2),  # zero step
            (["--identity", "--d", "0.5", "--grid", "1:0.5:2", "--eta", "-1"], 2),  # eta < 0
            (["--identity", "--d", "0.5", "--grid", "1:0.5:2", "--eta", "nan"], 2),
            (["--identity", "--d", "0.5", "--grid", "0.5:1:inf"], 2),  # non-finite stop
            (["--identity", "--d", "0.5", "--grid", "2:1:1"], 2),  # stop below start
            (["--identity", "--d", "0.5", "--grid", "1:-1:2"], 2),  # stop above start
            (["--spectrum", "d_N=0.5\nnan\n1.0\n", "--grid", "1:0.5:2"], 2),  # NaN eigenvalue
            (["--spectrum", "d_N=0.5\ninf\n1.0\n", "--grid", "1:0.5:2"], 2),  # infinite eigenvalue
            (["--spectrum", "d_N=inf\n1.0\n", "--grid", "1:0.5:2"], 2),  # infinite aspect ratio
        ],
    )
    def test_bad_input_exit_codes(self, argv, code, tmp_path, capsys):
        if argv[0] == "--spectrum":  # the entry after the flag is the file's text
            path = tmp_path / "spec.txt"
            path.write_text(argv[1])
            argv = [argv[0], str(path), *argv[2:]]
        got, out, err = run_cli(["mp-law", *argv], capsys)
        assert got == code
        assert out == ""
        assert len(err.strip().splitlines()) == 1
        assert "Traceback" not in err


    @pytest.mark.filterwarnings("error")
    def test_edges_of_a_large_spectrum(self, tmp_path, capsys):
        # Sigma = 50 I, d_N = 10: solved through the restarts of the eta ladder
        path = tmp_path / "s50.txt"
        a.write_spectrum_file(path, a.PopulationSpectrum((50.0,) * 10, 10.0))
        code, out, err = run_cli(
            ["mp-law", "--spectrum", str(path), "--edges-only", "--N", "50"], capsys
        )
        assert code == 0
        assert err == ""
        assert len(json.loads(out)["gamma"]) == 50


# the ignore mark sits above the error mark so that it wins: hypothesis's
# failure report raises this DeprecationWarning, and as an error it would
# hide the falsifying example behind an INTERNALERROR
@pytest.mark.filterwarnings("ignore:mypy_extensions.TypedDict is deprecated:DeprecationWarning")
@pytest.mark.filterwarnings("error")
class TestParsers:
    """Every grid or vector spec gives a finite grid or unit vector, or raises
    ValueError."""

    @given(
        st.floats(allow_nan=True, allow_infinity=True),
        st.floats(allow_nan=True, allow_infinity=True),
        st.floats(allow_nan=True, allow_infinity=True),
    )
    @settings(max_examples=300, deadline=None)
    def test_grid(self, start, step, stop):
        try:
            grid = _parse_grid(f"{start!r}:{step!r}:{stop!r}")
        except ValueError:
            return
        assert grid.size >= 1
        assert np.all(np.isfinite(grid))

    @given(st.text(alphabet="e0123456789+-x", max_size=8), st.integers(1, 6))
    @settings(max_examples=300, deadline=None)
    def test_named_vector(self, spec, n):
        try:
            v = _unit_vector(spec, n)
        except ValueError:
            return
        assert v.shape == (n,)
        assert abs(np.linalg.norm(v) - 1.0) <= 1e-12

    @given(entries=st.lists(st.floats(allow_nan=True, allow_infinity=True), min_size=1, max_size=6))
    @settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_vector_file(self, entries, tmp_path):
        path = tmp_path / "v.txt"
        path.write_text("\n".join(repr(x) for x in entries) + "\n")
        try:
            v = _unit_vector(f"@{path}", len(entries))
        except ValueError:
            return
        assert np.all(np.isfinite(v))
        assert abs(np.linalg.norm(v) - 1.0) <= 1e-12


class TestCltKernel:
    def test_outside_kernel_value(self, capsys):
        code, out, _ = run_cli(
            ["clt-kernel", "--identity", "--d", "0.5", "--n", "4", "--mode", "outside",
             "--E", "4.0"],
            capsys,
        )
        assert code == 0
        data = json.loads(out)
        assert data["value"] == pytest.approx(0.05500734439491026, abs=1e-9)

    @pytest.mark.parametrize("entries", ["0\n0\n0\n", "1\nnan\n0\n", "1\n1\n"])
    def test_bad_vector_file_exit_two(self, entries, tmp_path, capsys):
        path = tmp_path / "v.txt"
        path.write_text(entries)
        code, out, err = run_cli(
            ["clt-kernel", "--identity", "--d", "0.5", "--n", "3", "--v1", f"@{path}"], capsys
        )
        assert code == 2
        assert out == ""
        assert len(err.strip().splitlines()) == 1
        assert "Traceback" not in err

    def test_placement_error_exit_four(self, capsys):
        code, _, err = run_cli(
            ["clt-kernel", "--identity", "--d", "0.5", "--n", "4", "--mode", "outside",
             "--E", "1.0"],
            capsys,
        )
        assert code == 4


class TestEstimate:
    @pytest.fixture
    def spiked_file(self, tmp_path):
        n, N = 200, 400
        model = a.PopulationModel.spiked(n, (0.5,))
        ens = a.sample_ensemble(model, N, a.EntryDistribution.gaussian(), seed=7)
        path = tmp_path / "data.bin"
        write_matrix(path, ens.sqrt_X)
        return str(path)

    def test_point_within_two_halfwidths(self, spiked_file, capsys):
        code, out, _ = run_cli(
            ["estimate", "--data", spiked_file, "--vector", "e1", "--E", "4.0"], capsys
        )
        assert code == 0
        rec = json.loads(out)
        assert abs(rec["point"] - 1.5) <= 2.0 * rec["halfwidth"]

    def test_halfwidth_alpha_ratio(self, spiked_file, capsys):
        _, out2, _ = run_cli(
            ["estimate", "--data", spiked_file, "--E", "4.0", "--alpha", "2"], capsys
        )
        _, out3, _ = run_cli(
            ["estimate", "--data", spiked_file, "--E", "4.0", "--alpha", "3"], capsys
        )
        h2 = json.loads(out2)["halfwidth"]
        h3 = json.loads(out3)["halfwidth"]
        assert h3 / h2 == pytest.approx(1.5, abs=1e-12)

    def test_low_E_exit_four(self, spiked_file, capsys):
        code, _, err = run_cli(
            ["estimate", "--data", spiked_file, "--E", "1.0"], capsys
        )
        assert code == 4

    def test_spike_method_does_not_decompose(self, spiked_file, capsys, monkeypatch):
        calls = []
        eigh = np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh", lambda A: calls.append(A.shape) or eigh(A))
        code, _, _ = run_cli(
            ["estimate", "--data", spiked_file, "--method", "spike", "--E", "4.0"], capsys
        )
        assert code == 0
        assert calls == []

    def test_E_below_lambda_1_exit_four(self, tmp_path, capsys):
        # an outlier near 4.67 lies above E = 4, which is clear of the bulk edge 2.91
        model = a.PopulationModel.spiked(200, (3.0,))
        ens = a.sample_ensemble(model, 400, a.EntryDistribution.gaussian(), seed=7)
        assert 4.0 < ens.lambda_1
        path = tmp_path / "outlier.bin"
        write_matrix(path, ens.sqrt_X)
        code, out, err = run_cli(["estimate", "--data", str(path), "--E", "4.0"], capsys)
        assert code == 4
        assert out == ""
        assert "inside the sample spectrum" in err

    def test_truncated_header_exit_two(self, tmp_path, capsys):
        from anisomp.io import MAGIC

        path = tmp_path / "short.bin"
        path.write_bytes(MAGIC + b"\x02\x00")
        code, out, err = run_cli(["estimate", "--data", str(path), "--E", "4.0"], capsys)
        assert code == 2
        assert out == ""
        assert len(err.strip().splitlines()) == 1
        assert "Traceback" not in err


class TestEmptyData:
    @pytest.mark.parametrize("dims", [(5, 0), (0, 5)], ids=["5x0", "0x5"])
    @pytest.mark.parametrize(
        "argv", [["estimate", "--vector", "e1", "--E", "4"], ["sphericity"]], ids=["estimate", "sphericity"]
    )
    def test_empty_matrix_exit_two(self, dims, argv, tmp_path, capsys):
        path = tmp_path / "empty.bin"
        write_matrix(path, np.zeros(dims))
        code, out, err = run_cli([argv[0], "--data", str(path), *argv[1:]], capsys)
        assert code == 2
        assert out == ""
        assert len(err.strip().splitlines()) == 1
        assert "empty" in err
        assert "Traceback" not in err


class TestSphericity:
    def test_verdict_json(self, tmp_path, capsys):
        rng = np.random.default_rng(0)
        data = rng.standard_normal((100, 200)) / math.sqrt(200)
        path = tmp_path / "null.bin"
        write_matrix(path, data)
        code, out, _ = run_cli(
            ["sphericity", "--data", str(path), "--u", "e1", "--v", "e2"], capsys
        )
        assert code == 0
        rec = json.loads(out)
        assert rec["decision"] in ("accept", "reject")
        assert rec["alpha"] == pytest.approx(1.959964, abs=1e-4)

    @pytest.mark.parametrize(
        "flags",
        [["--margin", "0"], ["--margin", "-1"], ["--margin", "nan"], ["--omega", "2"]],
    )
    def test_bad_parameter_exit_two(self, flags, tmp_path, capsys):
        rng = np.random.default_rng(0)
        path = tmp_path / "null.bin"
        write_matrix(path, rng.standard_normal((40, 80)))
        code, out, err = run_cli(
            ["sphericity", "--data", str(path), "--u", "e1", "--v", "e2", *flags], capsys
        )
        assert code == 2
        assert out == ""
        assert len(err.strip().splitlines()) == 1


    @pytest.mark.parametrize("dims", [(2**20, 2**20), (2**63, 2**63)])
    def test_oversized_header_exit_two(self, dims, tmp_path, capsys):
        from anisomp.io import MAGIC

        path = tmp_path / "huge.bin"
        path.write_bytes(MAGIC + struct.pack("<QQ", *dims))  # 24 bytes, no data
        code, out, err = run_cli(["sphericity", "--data", str(path)], capsys)
        assert code == 2
        assert out == ""
        assert len(err.strip().splitlines()) == 1
        assert "Traceback" not in err


class TestMatrixIO:
    def test_binary_round_trip(self, tmp_path):
        rng = np.random.default_rng(1)
        m = rng.standard_normal((7, 11))
        path = tmp_path / "m.bin"
        write_matrix(path, m)
        assert np.array_equal(read_matrix(path), m)

    def test_csv_fallback(self, tmp_path):
        m = np.arange(12.0).reshape(3, 4)
        path = tmp_path / "m.csv"
        write_matrix(path, m, fmt="csv")
        assert np.allclose(read_matrix(path), m)

    @given(
        body=st.one_of(
            st.binary(max_size=96),
            st.tuples(st.integers(0, 4), st.integers(0, 4)).flatmap(
                lambda d: st.binary(min_size=8 * d[0] * d[1], max_size=8 * d[0] * d[1]).map(
                    lambda data: struct.pack("<QQ", *d) + data
                )
            ),
        )
    )
    @settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_any_binary_body_is_rejected_or_round_trips(self, body, tmp_path):
        from anisomp.io import MAGIC

        path = tmp_path / "fuzz.bin"
        path.write_bytes(MAGIC + body)
        try:
            data = read_matrix(path)
        except ValueError:
            return
        again = tmp_path / "again.bin"
        write_matrix(again, data)
        assert again.read_bytes() == MAGIC + body


class TestReproduce:
    def test_determinism_figure1(self, tmp_path, capsys):
        argv = [
            "reproduce", "figure1", "--seed", "1", "--trials", "30",
            "--out-dir", None,
        ]
        outs = []
        for sub in ("a", "b"):
            d = tmp_path / sub
            argv[-1] = str(d)
            main(argv)
            capsys.readouterr()
            outs.append((d / "figure1_gaussian_1.json").read_text())
        j0, j1 = (json.loads(o) for o in outs)
        j0.pop("wall_clock")
        j1.pop("wall_clock")
        assert j0 == j1

    @staticmethod
    def fake_reproduce(calls, failing=()):
        """A stand-in for ``experiments.reproduce`` that records its calls and
        returns one band per name, failed for the names in ``failing``."""
        from anisomp.experiments import BandResult, ExperimentReport

        def fake(name, **kw):
            calls.append((name, kw))
            rep = ExperimentReport(name=name, master_seed=kw["seed"], trial_count=1, config={})
            return [rep], [BandResult(f"{name} band", name not in failing, 0.5, "< 1")]

        return fake

    def test_several_names_run_in_turn(self, monkeypatch, capsys):
        from anisomp import cli

        calls = []
        monkeypatch.setattr(cli, "reproduce", self.fake_reproduce(calls))
        code, out, _ = run_cli(["reproduce", "table1", "figure1", "--seed", "3"], capsys)
        assert code == 0
        assert [name for name, _ in calls] == ["table1", "figure1"]
        assert calls[0][1] == calls[1][1] and calls[0][1]["seed"] == 3
        assert [ln.split(":")[0] for ln in out.splitlines()] == [
            "[PASS] table1 band", "report", "[PASS] figure1 band", "report"
        ]

    def test_a_failing_band_of_any_name_exits_five(self, monkeypatch, capsys):
        from anisomp import cli

        calls = []
        monkeypatch.setattr(cli, "reproduce", self.fake_reproduce(calls, failing=("table1",)))
        code, out, _ = run_cli(["reproduce", "table1", "figure1"], capsys)
        assert code == 5
        assert len(calls) == 2  # a failed band does not stop the later names
        assert "[FAIL] table1 band" in out and "[PASS] figure1 band" in out

    def test_unknown_name_exit_two(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["reproduce", "table9"])
        assert exc.value.code == 2

    def test_budget_exceeded_exit_three(self, tmp_path, capsys):
        # 10^7 trials of 500 x 1000 exceed the default budget before any trial runs
        code, out, err = run_cli(
            ["reproduce", "table1", "--trials", "10000000", "--out-dir", str(tmp_path)], capsys
        )
        assert code == 3
        assert out == ""
        assert len(err.strip().splitlines()) == 1
        assert "budget" in err

    def test_config_file_precedence(self, tmp_path, capsys):
        # flags > config file > defaults
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"seed": 5, "trials": 30, "out_dir": str(tmp_path / "c")}))
        main(["reproduce", "figure2", "--config", str(cfg)])
        capsys.readouterr()
        assert (tmp_path / "c" / "figure2_5.json").exists()
        main(["reproduce", "figure2", "--config", str(cfg), "--seed", "6"])
        capsys.readouterr()
        assert (tmp_path / "c" / "figure2_6.json").exists()


def _unwritable(tmp_path):
    """A path below a regular file: no process can create it."""
    blocker = tmp_path / "blocker"
    blocker.write_text("")
    return str(blocker / "out.json")


class TestExitMapping:
    """``main`` turns every failure into one exit code and one stderr line:
    OSError and ValueError 2, a placement error 4, any other package error 3."""

    @pytest.fixture
    def data_file(self, tmp_path):
        path = tmp_path / "data.bin"
        write_matrix(path, np.random.default_rng(0).standard_normal((20, 40)) / math.sqrt(40))
        return str(path)

    @pytest.mark.parametrize(
        "argv",
        [
            ["mp-law", "--identity", "--d", "0.5", "--grid", "1:1:2"],
            ["clt-kernel", "--identity", "--d", "0.5"],
            ["estimate", "--data", "DATA", "--E", "4"],
            ["sphericity", "--data", "DATA"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_unwritable_out_exit_two(self, argv, data_file, tmp_path, capsys):
        argv = [data_file if x == "DATA" else x for x in argv]
        code, out, err = run_cli([*argv, "--out", _unwritable(tmp_path)], capsys)
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and len(err.splitlines()) == 1

    def test_unwritable_out_dir_exit_two(self, monkeypatch, tmp_path, capsys):
        from anisomp import experiments

        def preset(seed, full, trials, workers):
            rep = experiments.ExperimentReport(name="table1", master_seed=seed, trial_count=1, config={})
            return [rep], []

        monkeypatch.setitem(experiments._PRESETS, "table1", preset)
        code, out, err = run_cli(["reproduce", "table1", "--out-dir", _unwritable(tmp_path)], capsys)
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and len(err.splitlines()) == 1

    @pytest.mark.parametrize(
        "argv",
        [
            ["clt-kernel", "--identity", "--d", "0.5", "--mode", "global", "--z1", "garbage"],
            ["clt-kernel", "--identity", "--d", "0.5", "--kappa", "nan"],
            ["clt-kernel", "--identity", "--d", "0.5", "--E", "nan"],
            ["clt-kernel", "--identity", "--d", "0.5", "--E", "inf"],
            ["clt-kernel", "--identity", "--d", "0.5", "--mode", "global", "--z1", "nan+1j"],
            ["mp-law", "--identity", "--d", "inf", "--grid", "1:1:2"],
            ["estimate", "--data", "DATA", "--E", "4", "--alpha", "nan"],
            ["estimate", "--data", "DATA", "--E", "4", "--alpha", "0"],
            ["estimate", "--data", "DATA", "--E", "4", "--alpha", "-1"],
            ["estimate", "--data", "DATA", "--E", "inf"],
            ["estimate", "--data", "DATA", "--E", "nan", "--method", "population"],
            ["estimate", "--data", "NAN_DATA", "--E", "4"],
            ["sphericity", "--data", "NAN_DATA"],
        ],
    )
    def test_bad_number_exit_two(self, argv, data_file, tmp_path, capsys):
        bad = np.random.default_rng(0).standard_normal((20, 40))
        bad[3, 5] = np.nan
        write_matrix(tmp_path / "nan.bin", bad)
        files = {"DATA": data_file, "NAN_DATA": str(tmp_path / "nan.bin")}
        code, out, err = run_cli([files.get(x, x) for x in argv], capsys)
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and len(err.splitlines()) == 1

    def test_near_singular_sphericity_exit_four(self, data_file, capsys):
        code, out, err = run_cli(["sphericity", "--data", data_file, "--margin", "1e-9"], capsys)
        assert (code, out) == (4, "")
        assert err.startswith("placement error: ") and len(err.splitlines()) == 1

    def test_reproduce_solver_failure_prefix(self, tmp_path, capsys):
        code, _, err = run_cli(
            ["reproduce", "table1", "--trials", "10000000", "--out-dir", str(tmp_path)], capsys
        )
        assert code == 3
        assert err.startswith("solver failure: ") and len(err.splitlines()) == 1

    @pytest.mark.parametrize(
        "argv",
        [
            ["mp-law", "--identity", "--d", "0.5", "--edges-only", "--N", "0"],
            ["mp-law", "--identity", "--d", "0.5", "--n", "0", "--grid", "1:1:2"],
            ["clt-kernel", "--identity", "--d", "0.5", "--N", "0"],
            ["clt-kernel", "--identity", "--d", "0.5", "--n", "-1"],
        ],
    )
    def test_zero_count_is_not_the_default(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2

    @pytest.mark.parametrize(
        "flags, env",
        [(["--workers", "0"], None), (["--workers", "-1"], None), ([], "0"), (["--trials", "0"], None)],
    )
    def test_reproduce_count_below_one_exit_two(self, flags, env, monkeypatch, tmp_path, capsys):
        from anisomp import experiments

        def fail(*args, **kwargs):
            raise AssertionError("a trial ran")

        monkeypatch.setattr(experiments, "_map_trials", fail)
        if env is not None:
            monkeypatch.setenv("ANISOMP_WORKERS", env)
        code, out, err = run_cli(["reproduce", "table1", "--out-dir", str(tmp_path), *flags], capsys)
        assert (code, out) == (2, "")
        assert len(err.splitlines()) == 1


class TestReproduceConfig:
    """The --config file is one JSON object of known, typed settings."""

    @pytest.mark.parametrize(
        "text",
        [
            "[1]",
            '"seed"',
            '{"trials": "x"}',
            '{"full": "false"}',
            '{"trails": 30}',
            '{"seed": true}',
            '{"seed": 5.0}',
            '{"trials": 30.5}',
            '{"out_dir": 3}',
            "{not json",
        ],
    )
    def test_bad_config_exit_two(self, text, monkeypatch, tmp_path, capsys):
        from anisomp import cli

        calls = []
        monkeypatch.setattr(cli, "reproduce", TestReproduce.fake_reproduce(calls))
        cfg = tmp_path / "cfg.json"
        cfg.write_text(text)
        code, out, err = run_cli(["reproduce", "table1", "--config", str(cfg)], capsys)
        assert (code, out, calls) == (2, "", [])
        assert err.startswith("error: ") and len(err.splitlines()) == 1

    def test_flags_over_config_over_defaults(self, monkeypatch, tmp_path, capsys):
        from anisomp import cli

        calls = []
        monkeypatch.setattr(cli, "reproduce", TestReproduce.fake_reproduce(calls))
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"seed": 5, "trials": None, "full": True}))
        argvs = [
            ["reproduce", "table1"],
            ["reproduce", "table1", "--config", str(cfg)],
            ["reproduce", "table1", "--config", str(cfg), "--seed", "0", "--trials", "40", "--out-dir", "x"],
        ]
        for argv in argvs:
            assert run_cli(argv, capsys)[0] == 0
        settings = [{k: kw[k] for k in ("seed", "trials", "out_dir", "full")} for _, kw in calls]
        assert settings == [
            {"seed": 1, "trials": None, "out_dir": ".", "full": False},
            {"seed": 5, "trials": None, "out_dir": ".", "full": True},
            {"seed": 0, "trials": 40, "out_dir": "x", "full": True},
        ]


def _strict_json(text):
    def reject(constant):
        raise ValueError(f"{constant} is not strict JSON")

    return json.loads(text, parse_constant=reject)


HOSTILE = ["nan", "inf", "0", "-1", "text", "1+2j", "@MISSING", "UNWRITABLE"]
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-5, 10**6) | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=5,
)
CONFIGS = JSON_VALUES | st.dictionaries(
    st.sampled_from(["seed", "trials", "out_dir", "full", "trails"]), JSON_VALUES, max_size=4
)


@pytest.mark.filterwarnings("ignore:mypy_extensions.TypedDict is deprecated:DeprecationWarning")
@pytest.mark.filterwarnings("error")
class TestMainContract:
    """Valid small argv for every subcommand with one flag's value replaced
    by a hostile token: ``main`` exits 0, 2, 3, 4 or 5 (or argparse exits 2),
    writes at most one stderr line and no traceback, and on success writes
    strict JSON or the mp-law CSV."""

    @staticmethod
    def argvs(tmp_path):
        data = tmp_path / "data.bin"
        write_matrix(data, np.random.default_rng(3).standard_normal((20, 40)) / math.sqrt(40))
        spec = tmp_path / "spec.txt"
        a.write_spectrum_file(spec, a.PopulationSpectrum((4.0,) * 2 + (1.0,) * 8, 0.2))
        kernel = ["clt-kernel", "--identity", "--d", "0.5", "--n", "4", "--v1", "e1", "--v2", "e", "--kappa", "0.5"]
        return [
            ["mp-law", "--identity", "--d", "0.5", "--n", "4", "--N", "8", "--grid", "1:0.5:2", "--eta", "0"],
            ["mp-law", "--spectrum", str(spec), "--edges-only", "--N", "50"],
            [*kernel, "--mode", "global", "--E", "3", "--z1", "4+1j", "--z2", "3-0.5j"],
            [*kernel, "--mode", "outside", "--E", "4"],
            [*kernel, "--mode", "variance", "--E", "4"],
            ["estimate", "--data", str(data), "--vector", "e1", "--E", "4", "--alpha", "2",
             "--method", "population", "--kappa-mode", "pooled"],
            ["estimate", "--data", str(data), "--vector", "e", "--E", "4", "--method", "spike"],
            ["sphericity", "--data", str(data), "--u", "e1", "--v", "e2", "--omega", "0.05", "--margin", "1"],
            ["reproduce", "table1", "--seed", "1", "--trials", "30", "--out-dir", "reports",
             "--workers", "1", "--config", "cfg.json"],
        ]

    @given(data=st.data())
    @settings(max_examples=250, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_one_hostile_value(self, data, tmp_path, monkeypatch, capsys):
        from anisomp import cli

        monkeypatch.setattr(cli, "reproduce", TestReproduce.fake_reproduce([]))
        argv = data.draw(st.sampled_from(self.argvs(tmp_path)))
        flags = [i for i in range(1, len(argv) - 1) if argv[i].startswith("--") and not argv[i + 1].startswith("--")]
        if argv[0] != "reproduce":
            argv.extend(["--out", "out.txt"])
            flags.append(len(argv) - 2)
        at = data.draw(st.sampled_from(flags)) + 1
        token = data.draw(st.sampled_from(HOSTILE))
        argv[at] = {"@MISSING": f"@{tmp_path / 'missing.txt'}", "UNWRITABLE": _unwritable(tmp_path)}.get(token, token)
        work = tmp_path / f"work{len(list(tmp_path.glob('work*')))}"
        work.mkdir()
        monkeypatch.chdir(work)
        if argv[0] == "reproduce":
            (work / "cfg.json").write_text(json.dumps(data.draw(CONFIGS)))
        capsys.readouterr()
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse refused the command line
            assert exc.code == 2
            return
        out, err = capsys.readouterr()
        assert code in (0, 2, 3, 4, 5)
        assert len(err.splitlines()) <= 1 and "Traceback" not in err
        if code != 0:
            return
        if argv[0] == "reproduce":
            assert all(ln.startswith(("[PASS]", "report:")) for ln in out.splitlines())
            return
        text = (work / argv[-1]).read_text() if argv[-2] == "--out" else out
        if argv[0] == "mp-law" and "--grid" in argv:
            lines = text.splitlines()
            assert lines[0] == "E,rho2c,re_m,im_m"
            assert all(len(row) == 4 and all(math.isfinite(float(x)) for x in row)
                       for row in (ln.split(",") for ln in lines[1:]))
        else:
            _strict_json(text)
