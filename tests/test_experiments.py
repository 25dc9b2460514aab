from importlib import resources
from pathlib import Path

import numpy as np
import pytest

from riscoupling import (
    ArrayFactors,
    MethodId,
    RisState,
    Scenario,
    array_gain,
    build_los_scenario,
    experiments,
    ignore_mc_gain,
    optimize,
)
from riscoupling import channel as channel_module
from riscoupling.cli import main
from riscoupling.errors import NotPSDError, NumericallySingularError
from riscoupling.experiments import (
    CSV_HEADER,
    ConfigError,
    SweepRecord,
    SweepSpec,
    parse_config,
    run_sweep,
    write_csv,
)

from conftest import SLOW_RIDGE

DATA = Path(__file__).parent / "data"

MINIMAL = """
N = 4
spacing = 0.25
angles = end-fire
methods = Decoupled
"""


class TestParseConfig:
    def test_minimal(self):
        spec = parse_config(MINIMAL)
        assert spec.n_list == (4,)
        assert spec.spacing_list == (0.25,)
        assert spec.angle_pairs == ((0.0, np.pi),)
        assert spec.methods == (MethodId.DECOUPLED,)
        assert spec.R == 50.0
        assert spec.tol == 1e-10
        assert spec.max_sweeps == 500

    def test_cartesian_product_count(self):
        spec = parse_config("""
N = 2, 4, 8
spacing = 0.5, 0.25, 0.1, 0.05
angles = front-fire
methods = Decoupled
""")
        assert len(spec.scenarios()) == 12

    def test_named_and_numeric_angles(self):
        spec = parse_config(MINIMAL.replace("end-fire", "front-fire; 0.7:2.1"))
        assert spec.angle_pairs == ((np.pi / 2, np.pi / 2), (0.7, 2.1))

    def test_empty_methods_rejected(self):
        with pytest.raises(ConfigError):
            parse_config(MINIMAL.replace("methods = Decoupled", "methods ="))

    def test_unknown_key_reports_line(self):
        with pytest.raises(ConfigError, match="line 2"):
            parse_config("N = 4\nbogus = 1\nspacing = 0.25\nangles = end-fire\nmethods = Decoupled")

    def test_missing_required_key(self):
        with pytest.raises(ConfigError, match="spacing"):
            parse_config("N = 4\nangles = end-fire\nmethods = Decoupled")

    def test_non_numeric_value(self):
        with pytest.raises(ConfigError, match="non-numeric"):
            parse_config(MINIMAL + "tol = often")

    def test_unknown_method(self):
        with pytest.raises(ConfigError, match="Z-OPT"):
            parse_config(MINIMAL.replace("Decoupled", "Z-OPT"))

    @pytest.mark.parametrize("scenario_id", ["a,b", 'a"b'])
    def test_csv_breaking_scenario_id_rejected(self, scenario_id):
        # a comma would shift every column of the row under the 12-column header
        with pytest.raises(ConfigError, match="scenario_id"):
            parse_config(f"scenario_id = {scenario_id}\n" + MINIMAL)

    @pytest.mark.parametrize("scenario_id", ["a\nb", "a\rb", "a\r\nb"])
    def test_line_break_in_scenario_id_rejected(self, scenario_id):
        # unreachable from a config file, whose lines are split first
        with pytest.raises(ConfigError, match="scenario_id"):
            SweepSpec(n_list=(2,), spacing_list=(0.5,), angle_pairs=((0.0, 0.0),),
                      methods=(MethodId.NO_COUPLING,), scenario_id=scenario_id)

    def test_comments_and_blank_lines_ignored(self):
        spec = parse_config("# header\n\n" + MINIMAL + "\n# trailing\n")
        assert spec.n_list == (4,)


class TestRunSweep:
    def test_closed_form_methods_single_record(self):
        spec = parse_config(MINIMAL.replace("Decoupled", "Decoupled, NoCoupling, IgnoreMC"))
        records = run_sweep(spec)
        assert len(records) == 3
        assert all(r.sweep_index == -1 for r in records)
        assert all(r.array_gain >= 0 for r in records)

    def test_iterative_method_per_sweep_records(self):
        spec = parse_config(MINIMAL.replace("Decoupled", "ElementWise"))
        records = run_sweep(spec)
        assert len(records) > 1
        assert [r.sweep_index for r in records] == list(range(len(records)))
        gains = [r.array_gain for r in records]
        assert all(b >= a - 1e-12 for a, b in zip(gains, gains[1:]))

    def test_trace_elements_gives_per_update_records(self):
        spec = parse_config(MINIMAL.replace("Decoupled", "ElementWise"))
        per_sweep = run_sweep(spec)
        per_update = run_sweep(spec, trace_elements=True)
        assert len(per_update) > len(per_sweep)

    def test_sweep_cap_flags_not_converged(self):
        text = MINIMAL.replace("Decoupled", "ElementWise, ElementWiseNaive")
        capped = run_sweep(parse_config(text + "max_sweeps = 2\n"))
        assert len(capped) == 4
        assert all(r.flags == ("not_converged",) for r in capped)
        assert all("not_converged" not in r.flags for r in run_sweep(parse_config(text)))

    def test_accelerated_run_one_record_per_sweep(self):
        # a slow-ridge geometry on which the end-of-sweep step records trace entries
        s = SLOW_RIDGE
        spec = parse_config(f"""
N = {s.n}
spacing = {s.spacing!r}
angles = {s.alpha_tx!r}:{s.alpha_rx!r}
gamma_dr = {s.gamma_dr!r}
gamma_rs = {s.gamma_rs!r}
methods = ElementWise
""")
        records = run_sweep(spec)
        res = optimize(build_los_scenario(s), RisState.zeros(s.n))
        assert res.trace.size > s.n * res.sweeps + 1
        assert [r.sweep_index for r in records] == list(range(res.sweeps))
        norm = s.gamma_dr * s.gamma_rs * s.R**2
        assert records[-1].array_gain == res.trace[-1] / norm
        assert all(r.flags == () for r in records)

    def test_numerical_failure_captured_in_flags(self):
        spec = parse_config(MINIMAL.replace("0.25", "0.01"))
        records = run_sweep(spec)
        assert len(records) == 1
        assert records[0].array_gain == 0.0
        assert any(f.startswith("error:") for f in records[0].flags)

    def test_db_column_consistency(self):
        spec = parse_config(MINIMAL)
        r = run_sweep(spec)[0]
        assert r.array_gain_db == pytest.approx(10 * np.log10(r.array_gain))


# two spacings x two loss values: four arrays, each with three angle pairs
SHARED_ARRAYS = """
N = 3
spacing = 0.25, 0.5
gamma_loss = 0, 0.1
angles = front-fire; end-fire; corner
methods = Decoupled, IgnoreMC
"""


class TestArraySharing:
    """run_sweep factorises each array once and shares the factors across its angle pairs."""

    def test_one_factorisation_per_array_per_call(self, monkeypatch):
        calls = {"psd_inv_sqrt": 0, "checked_inverse": 0}
        for name in calls:
            def counted(z, _name=name, _original=getattr(channel_module, name)):
                calls[_name] += 1
                return _original(z)
            monkeypatch.setattr(channel_module, name, counted)
        spec = parse_config(SHARED_ARRAYS)
        for sweeps in (1, 2):
            assert len(run_sweep(spec)) == 24
            assert calls == {"psd_inv_sqrt": 4 * sweeps, "checked_inverse": 4 * sweeps}

    def test_rows_equal_standalone_gains(self, monkeypatch):
        seen = []
        for name, gain in (("array_gain", array_gain), ("ignore_mc_gain", ignore_mc_gain)):
            def recorded(s, factors, _gain=gain):
                seen.append((s, factors))
                return _gain(s, factors)
            monkeypatch.setattr(experiments, name, recorded)
        records = run_sweep(parse_config(SHARED_ARRAYS))
        for r in records:
            s = Scenario(n=r.n, spacing=r.spacing, alpha_tx=r.alpha_tx, alpha_rx=r.alpha_rx,
                         gamma_loss=r.gamma_loss)
            standalone = array_gain(s) if r.method == "Decoupled" else ignore_mc_gain(s)
            assert r.array_gain == standalone
            assert r.flags == ()
        # one factors object per array, passed to every row of it, its factors read-only
        by_array = {}
        for s, factors in seen:
            by_array.setdefault((s.spacing, s.gamma_loss), set()).add(id(factors))
            z_r = build_los_scenario(s).z_r
            for shared in (factors.inverse(z_r), factors.re_inv_sqrt(z_r)):
                with pytest.raises(ValueError, match="read-only"):
                    shared[0, 0] = 0.0
        assert len(seen) == 24 and len(by_array) == 4
        assert all(len(ids) == 1 for ids in by_array.values())
        assert len(set.union(*by_array.values())) == 4

    def test_factors_kept_read_only(self):
        z_r = build_los_scenario(Scenario(n=4, spacing=0.25, alpha_tx=0.0, alpha_rx=np.pi)).z_r
        factors = ArrayFactors()
        inv, inv_sqrt = factors.inverse(z_r), factors.re_inv_sqrt(z_r)
        assert factors.inverse(z_r) is inv and factors.re_inv_sqrt(z_r) is inv_sqrt
        np.testing.assert_allclose(inv @ z_r, np.eye(4), atol=1e-12)
        np.testing.assert_allclose(inv_sqrt @ z_r.real @ inv_sqrt, np.eye(4), atol=1e-12)
        for shared in (inv, inv_sqrt):
            assert not shared.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                shared += 1.0

    def test_failed_factorisation_flags_every_row_of_its_array(self, monkeypatch):
        checked_inverse, psd_inv_sqrt = channel_module.checked_inverse, channel_module.psd_inv_sqrt
        calls = []

        def singular(z):
            calls.append("inverse")
            if z.shape == (3, 3):
                raise NumericallySingularError("singular", condition=np.inf)
            return checked_inverse(z)

        def not_psd(s):
            calls.append("inv_sqrt")
            if s.shape == (3, 3):
                raise NotPSDError("not PSD")
            return psd_inv_sqrt(s)
        monkeypatch.setattr(channel_module, "checked_inverse", singular)
        monkeypatch.setattr(channel_module, "psd_inv_sqrt", not_psd)
        records = run_sweep(parse_config(SHARED_ARRAYS.replace("N = 3", "N = 2, 3")))
        assert len(records) == 48
        for r in records:
            if r.n == 2:
                assert r.flags == () and r.array_gain > 0.0
            else:
                error = "NotPSDError" if r.method == "Decoupled" else "NumericallySingularError"
                assert r.flags == (f"error:{error}",) and r.array_gain == 0.0
        # a factorisation that raised is not kept: each N = 3 row tries again
        assert calls.count("inverse") == calls.count("inv_sqrt") == 4 + 12


def strip_wall_time(text: str) -> list[str]:
    out = []
    for line in text.splitlines():
        parts = line.split(",")
        del parts[10]
        out.append(",".join(parts))
    return out


class TestWriteCsv:
    def test_empty_records_header_only(self, tmp_path):
        path = tmp_path / "empty.csv"
        write_csv([], path)
        assert path.read_text() == CSV_HEADER + "\n"

    def test_single_record_two_lines(self, tmp_path):
        rec = SweepRecord("s", "Decoupled", 4, 0.25, 0.0, np.pi, 0.0, -1, 16.0, 0.1)
        path = tmp_path / "one.csv"
        write_csv([rec], path)
        lines = path.read_text().splitlines()
        assert len(lines) == 2
        assert lines[0] == CSV_HEADER
        fields = lines[1].split(",")
        assert fields[1] == "Decoupled"
        assert float(fields[8]) == 16.0

    def test_shortest_round_trip_floats(self, tmp_path):
        gain = 163.08229291828144
        rec = SweepRecord("s", "Decoupled", 4, 0.25, 0.0, np.pi, 0.0, -1, gain, 0.0)
        path = tmp_path / "rt.csv"
        write_csv([rec], path)
        assert float(path.read_text().splitlines()[1].split(",")[8]) == gain

    def test_golden_file(self, tmp_path):
        spec = parse_config((DATA / "golden_sweep.cfg").read_text())
        records = run_sweep(spec)
        path = tmp_path / "golden.csv"
        write_csv(records, path)
        got = strip_wall_time(path.read_text())
        expected = strip_wall_time((DATA / "golden_sweep.csv").read_text())
        assert got == expected


class TestCli:
    def test_run_roundtrip(self, tmp_path):
        cfg = tmp_path / "spec.cfg"
        cfg.write_text("scenario_id = clitest\n" + MINIMAL)
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        out = (tmp_path / "clitest.csv").read_text()
        assert out.splitlines()[0] == CSV_HEADER

    def test_config_error_exit_code(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("nonsense\n")
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path)]) == 1

    @pytest.mark.parametrize("line", ["N = 0", "spacing = -0.1", "spacing = nan",
                                      "spacing = inf", "gamma_loss = -1", "gamma_dr = 0",
                                      "max_sweeps = 0"])
    def test_out_of_range_value_exit_code(self, tmp_path, line):
        key = line.split(" = ")[0]
        text = "\n".join(ln for ln in MINIMAL.splitlines() if not ln.startswith(key + " "))
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(text + "\n" + line + "\n")
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path)]) == 1
        assert not (tmp_path / "sweep.csv").exists()

    def test_csv_breaking_scenario_id_exit_code(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("scenario_id = a,b\n" + MINIMAL)
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path)]) == 1
        assert list(tmp_path.glob("*.csv")) == []

    def test_missing_config_file(self, tmp_path):
        assert main(["run", "--config", str(tmp_path / "nope.cfg"),
                     "--out", str(tmp_path)]) == 1

    def test_strict_numerical_failure_exit_code(self, tmp_path):
        cfg = tmp_path / "tiny.cfg"
        cfg.write_text(MINIMAL.replace("0.25", "0.005"))
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path), "--strict"]) == 2
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path)]) == 0

    def test_list_figures(self, capsys):
        assert main(["list-figures"]) == 0
        out = capsys.readouterr().out
        for name in ("fig3.cfg", "fig4.cfg", "fig5.cfg", "fig6.cfg", "fig7.cfg", "fig8.cfg"):
            assert name in out


class TestShippedConfigs:
    @pytest.mark.parametrize("name", ["fig3", "fig4", "fig5", "fig6", "fig7", "fig8"])
    def test_all_parse(self, name):
        path = resources.files("riscoupling") / "configs" / f"{name}.cfg"
        spec = parse_config(path.read_text(encoding="utf-8"))
        assert spec.scenarios()
        assert spec.methods

    def test_spec_validation(self):
        with pytest.raises(ConfigError):
            SweepSpec(scenario_id="x", n_list=(), spacing_list=(0.5,),
                      angle_pairs=((0.0, np.pi),), methods=(MethodId.DECOUPLED,))
