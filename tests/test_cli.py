"""CLI contract: exit codes, formats, determinism, thin-adapter property."""

import json
import math

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

    def test_truncated_header_exit_two(self, tmp_path, capsys):
        from anisomp.io import MAGIC

        path = tmp_path / "short.bin"
        path.write_bytes(MAGIC + b"\x02\x00")
        code, out, err = run_cli(["estimate", "--data", str(path), "--E", "4.0"], capsys)
        assert code == 2
        assert out == ""
        assert len(err.strip().splitlines()) == 1
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
