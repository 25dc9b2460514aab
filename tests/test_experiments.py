import dataclasses
import importlib
import inspect
import pkgutil
import sys
import threading
import weakref
from importlib import resources
from pathlib import Path

import numpy as np
import pytest

import riscoupling
from riscoupling import (
    ArrayFactors,
    ImpedanceChannel,
    MethodId,
    RisState,
    Scenario,
    array_gain,
    build_los_scenario,
    closed_form_siso,
    decoupling,
    effective_channel,
    experiments,
    ignore_mc_gain,
    optimize,
)
from riscoupling import channel as channel_module
from riscoupling.channel import blas_threads
from riscoupling import cli
from riscoupling.cli import main
from riscoupling.errors import InvalidArgumentError, NotPSDError, NumericallySingularError
from riscoupling.experiments import (
    CSV_HEADER,
    ConfigError,
    SweepRecord,
    SweepSpec,
    parse_config,
    run_sweep,
    write_csv,
)

from conftest import SLOW_RIDGE, end_fire, front_fire

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

    @pytest.mark.parametrize("scenario_id", ["a,b", 'a"b', ""])
    def test_csv_breaking_scenario_id_rejected(self, scenario_id):
        # a comma would shift every column of the row under the 12-column header;
        # an empty id would write a hidden ".csv" whose rows start with an empty field
        with pytest.raises(ConfigError, match="scenario_id"):
            parse_config(f"scenario_id = {scenario_id}\n" + MINIMAL)

    @pytest.mark.parametrize("scenario_id", ["a\nb", "a\rb", "a\r\nb"])
    def test_line_break_in_scenario_id_rejected(self, scenario_id):
        # unreachable from a config file, whose lines are split first
        with pytest.raises(ConfigError, match="scenario_id"):
            SweepSpec(n_list=(2,), spacing_list=(0.5,), angle_pairs=((0.0, 0.0),),
                      methods=(MethodId.NO_COUPLING,), scenario_id=scenario_id)

    @pytest.mark.parametrize("line", [
        "N = 4, 4",
        "spacing = 0.25, 0.250",
        "gamma_loss = 0, -0.0",
        "angles = end-fire; 0:3.141592653589793",
        "methods = Decoupled, NoCoupling, Decoupled",
        "methods = ElementWise, ElementWise",
    ])
    def test_repeated_point_rejected(self, line):
        # each would write rows that cannot be told apart
        key = line.split(" = ")[0]
        text = "\n".join(ln for ln in MINIMAL.splitlines() if not ln.startswith(key + " "))
        name = "method" if key == "methods" else "scenario"
        with pytest.raises(ConfigError, match=f"repeated {name}"):
            parse_config(text + "\n" + line)

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

    def test_record_fields(self):
        assert [f.name for f in dataclasses.fields(SweepRecord)] == [
            "scenario_id", "method", "scenario", "sweep_index", "array_gain", "wall_time_s",
            "flags"]

    def test_records_carry_their_scenarios(self):
        # the knobs the CSV does not write as well as those it does
        spec = parse_config(MINIMAL.replace("Decoupled", "Decoupled, ElementWise")
                            .replace("end-fire", "end-fire; front-fire")
                            + "gamma_dr = 0.5\ngamma_rs = 2\nR = 75\ngamma_loss = 0, 0.1\n")
        scenarios = {(w.gamma_loss, w.alpha_tx): w for w in spec.scenarios()}
        records = run_sweep(spec)
        assert len(scenarios) == 4 and len(records) > 8
        by_scenario = {}
        for r in records:
            s = r.scenario
            assert s == scenarios[s.gamma_loss, s.alpha_tx]     # all eight fields
            assert (s.gamma_dr, s.gamma_rs, s.R) == (0.5, 2.0, 75.0)
            by_scenario.setdefault(id(s), set()).add(r.method)
        # the rows of a scenario share its one object, a row of each method
        assert sorted(map(sorted, by_scenario.values())) == [["Decoupled", "ElementWise"]] * 4

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
    """run_sweep builds each array's Z_R and factorisations once and shares them
    across its angle pairs."""

    def test_one_z_r_per_array_per_call(self, monkeypatch):
        built, looked_up = [], []

        def counted(n, spacing, R, _original=channel_module.build_coupling_matrix):
            built.append(_original(n, spacing, R))
            return built[-1]

        def recorded(cls, s, _original=ArrayFactors.of.__func__):
            looked_up.append((s, _original(cls, s)))
            return looked_up[-1][1]
        monkeypatch.setattr(channel_module, "build_coupling_matrix", counted)
        monkeypatch.setattr(ArrayFactors, "of", classmethod(recorded))
        spec = parse_config(SHARED_ARRAYS)
        assert len(run_sweep(spec)) == 24
        assert len(built) == 4 and len(looked_up) == 24
        # every row reads its array's one Z_R, read-only (a copy of the list, which
        # build_los_scenario below appends to)
        by_array = {}
        for s, factors in looked_up[:]:
            by_array.setdefault(s.array, set()).add(id(factors.z_r))
            assert not factors.z_r.flags.writeable
            assert factors.z_r.tobytes() == build_los_scenario(s).z_r.tobytes()
        assert len(by_array) == 4 and all(len(ids) == 1 for ids in by_array.values())

    def test_one_factorisation_per_array_per_call(self, monkeypatch):
        calls = {"psd_inv_sqrt": 0, "_inverse_by_halves": 0}
        for name in calls:
            def counted(z, _name=name, _original=getattr(channel_module, name)):
                calls[_name] += 1
                return _original(z)
            monkeypatch.setattr(channel_module, name, counted)
        channels = []

        def post_init(ch, _original=ImpedanceChannel.__post_init__):
            channels.append(ch)
            _original(ch)
        monkeypatch.setattr(ImpedanceChannel, "__post_init__", post_init)
        # the closed-form rows read the steering vectors and the factors, and build no channel
        spec = parse_config(SHARED_ARRAYS.replace("IgnoreMC", "IgnoreMC, NoCoupling"))
        for sweeps in (1, 2):
            records = run_sweep(spec)
            assert len(records) == 36 and all(r.flags == () for r in records)
            assert calls == {"psd_inv_sqrt": 4 * sweeps, "_inverse_by_halves": 4 * sweeps}
        assert channels == []

    def test_rows_equal_standalone_gains(self, monkeypatch):
        seen = []
        for name, gain in (("array_gain", array_gain), ("ignore_mc_gain", ignore_mc_gain)):
            def recorded(s, _gain=gain):
                gain = _gain(s)
                seen.append((s, ArrayFactors._last))        # the factors the row read
                return gain
            monkeypatch.setattr(experiments, name, recorded)
        records = run_sweep(parse_config(SHARED_ARRAYS))
        for r in records:
            s = r.scenario
            standalone = array_gain(s) if r.method == "Decoupled" else ignore_mc_gain(s)
            assert r.array_gain == standalone
            assert r.flags == ()
        # one factors object per array, read by every row of it, its factors read-only
        by_array = {}
        for s, factors in seen:
            by_array.setdefault((s.spacing, s.gamma_loss), set()).add(id(factors))
            assert factors.array == s.array
            for shared in (factors.z_r, factors.inverse, factors.re_inv_sqrt):
                with pytest.raises(ValueError, match="read-only"):
                    shared[0, 0] = 0.0
        assert len(seen) == 24 and len(by_array) == 4
        assert all(len(ids) == 1 for ids in by_array.values())
        assert len(set.union(*by_array.values())) == 4

    def test_factors_kept_read_only(self):
        s = Scenario(n=4, spacing=0.25, alpha_tx=0.0, alpha_rx=np.pi)
        factors = ArrayFactors(s)
        z_r = factors.z_r
        assert z_r.tobytes() == build_los_scenario(s).z_r.tobytes()
        inv, inv_sqrt = factors.inverse, factors.re_inv_sqrt
        assert factors.inverse is inv and factors.re_inv_sqrt is inv_sqrt
        np.testing.assert_allclose(inv @ z_r, np.eye(4), atol=1e-12)
        np.testing.assert_allclose(inv_sqrt @ z_r.real @ inv_sqrt, np.eye(4), atol=1e-12)
        for shared in (z_r, inv, inv_sqrt):
            assert not shared.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                shared += 1.0

    def test_failed_factorisation_flags_every_row_of_its_array(self, monkeypatch):
        inverse, psd_inv_sqrt = channel_module._inverse_by_halves, channel_module.psd_inv_sqrt
        calls = []

        def singular(z):
            calls.append("inverse")
            if z.shape == (3, 3):
                raise NumericallySingularError("singular", condition=np.inf)
            return inverse(z)

        def not_psd(s):
            calls.append("inv_sqrt")
            if s.shape == (3, 3):
                raise NotPSDError("not PSD")
            return psd_inv_sqrt(s)
        monkeypatch.setattr(channel_module, "_inverse_by_halves", singular)
        monkeypatch.setattr(channel_module, "psd_inv_sqrt", not_psd)
        records = run_sweep(parse_config(SHARED_ARRAYS.replace("N = 3", "N = 2, 3")))
        assert len(records) == 48
        for r in records:
            if r.scenario.n == 2:
                assert r.flags == () and r.array_gain > 0.0
            else:
                error = "NotPSDError" if r.method == "Decoupled" else "NumericallySingularError"
                assert r.flags == (f"error:{error}",) and r.array_gain == 0.0
        # a factorisation that raised is not kept: each N = 3 row tries again
        assert calls.count("inverse") == calls.count("inv_sqrt") == 4 + 12


# each takes a scenario and reads its array's factors (ArrayFactors.of), the
# functions of a channel through the LOS channel's Z_R
FACTOR_USERS = {
    "array_gain": array_gain,
    "ignore_mc_gain": ignore_mc_gain,
    "build_los_scenario": build_los_scenario,
    "effective_channel": lambda s: effective_channel(build_los_scenario(s)),
    "closed_form_siso": lambda s: closed_form_siso(build_los_scenario(s)),
}


def from_an_empty_slot(user, s):
    """repr(user(s)) with no array's factors kept beforehand."""
    ArrayFactors._last = None
    return repr(user(s))


class TestFactorsOfAnotherArray:
    """The factors ArrayFactors.of keeps for the last array asked for are
    refused for a scenario of another array, where they would give another
    array's gains (33.9 for 3832.4 in array_gain): the scenario gets its own
    array's, as from an empty slot, for the closed forms, build_los_scenario
    and the functions of the channel it makes."""

    @pytest.mark.parametrize("name", FACTOR_USERS)
    @pytest.mark.parametrize("other", [end_fire(8, 0.25), end_fire(4, 0.1),
                                       Scenario(n=8, spacing=0.1, alpha_tx=0.0, alpha_rx=np.pi,
                                                gamma_loss=0.1)])
    def test_refused(self, name, other):
        kept = ArrayFactors.of(other)
        kept.inverse, kept.re_inv_sqrt
        s = end_fire(8, 0.1)
        got = repr(FACTOR_USERS[name](s))
        assert ArrayFactors._last is not kept and ArrayFactors._last.array == s.array
        assert got == from_an_empty_slot(FACTOR_USERS[name], s)

    @pytest.mark.parametrize("name", FACTOR_USERS)
    def test_accepted_for_any_angles_of_the_array(self, name):
        s = end_fire(8, 0.1)
        kept = ArrayFactors.of(Scenario(n=8, spacing=0.1, alpha_tx=1.0, alpha_rx=0.3))
        got = repr(FACTOR_USERS[name](s))
        assert ArrayFactors._last is kept
        assert got == from_an_empty_slot(FACTOR_USERS[name], s)

    def test_array_gain_values(self):
        s = end_fire(8, 0.1)
        assert array_gain(s) == array_gain(s) == pytest.approx(3832.4, rel=1e-4)
        assert ignore_mc_gain(s) == pytest.approx(8.32, rel=1e-3)


class TestChannelCarriesFactors:
    """The closed forms and build_los_scenario read an array's factors from
    ArrayFactors.of, which keeps them until another array is asked for; a LOS
    channel carries its array's Z_R, and the functions of a channel whiten it."""

    def test_scenarios_of_one_array_share_one_factors_object(self):
        scenarios = [Scenario(n=6, spacing=0.2, alpha_tx=a, alpha_rx=b, gamma_dr=g,
                              gamma_rs=1.0 / g, gamma_loss=0.1)
                     for a, b in [(0.0, np.pi), (0.4, 1.9), (np.pi / 2, 0.0)] for g in (0.5, 1.0)]
        factors = [ArrayFactors.of(s) for s in scenarios]
        assert len({id(f) for f in factors}) == 1
        assert all(build_los_scenario(s).z_r is factors[0].z_r for s in scenarios)
        assert ArrayFactors._last is factors[0]

    def test_arrays_asked_for_in_turn_get_their_own_factors(self, monkeypatch):
        a, b = end_fire(8, 0.1), front_fire(6, 0.25, gamma_loss=0.1)

        def bits(s):
            factors = ArrayFactors.of(s)
            return (array_gain(s), ignore_mc_gain(s), factors.z_r.tobytes(),
                    factors.inverse.tobytes(), factors.re_inv_sqrt.tobytes())
        fresh = {s: from_an_empty_slot(bits, s) for s in (a, b)}
        ArrayFactors._last = None
        released, alive_at_build = [], []

        def build(*args, _original=channel_module.build_coupling_matrix):
            alive_at_build.append([r() is not None for r in released])
            return _original(*args)
        monkeypatch.setattr(channel_module, "build_coupling_matrix", build)
        for s in (a, b, a):
            assert repr(bits(s)) == fresh[s]
            factors = ArrayFactors._last
            assert factors.array == s.array
            released.append(weakref.ref(factors))
            del factors
        # each array's factors were dropped when the next array was asked for,
        # before the next array's Z_R was built
        assert alive_at_build == [[], [False], [False, False]]
        assert released[0]() is None and released[1]() is None
        assert released[2]() is ArrayFactors._last

    def test_threads_alternating_arrays_get_their_own_factors(self):
        arrays = [end_fire(5, 0.25), front_fire(6, 0.3), end_fire(5, 0.25, gamma_loss=0.1)]
        want = {s: from_an_empty_slot(array_gain, s) for s in arrays}
        wrong, start = [], threading.Barrier(4)

        def ask(offset):
            start.wait(timeout=60)
            for i in range(300):
                s = arrays[(i + offset) % len(arrays)]
                try:
                    if (ArrayFactors.of(s).array != s.array
                            or repr(array_gain(s)) != want[s]):
                        wrong.append((offset, i))
                except Exception as exc:    # as another array's factors would raise
                    wrong.append((offset, i, exc))

        threads, interval = blas_threads(), sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            workers = [threading.Thread(target=ask, args=(k,)) for k in range(4)]
            for w in workers:
                w.start()
            for w in workers:
                w.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(w.is_alive() for w in workers)
        assert wrong == []
        # the factorisations' BLAS scopes overlapped across threads; the last restored the count
        assert blas_threads() == threads

    def test_closed_form_reuses_the_whitening(self, monkeypatch):
        calls = []

        def counted(z, _original=channel_module.psd_inv_sqrt):
            calls.append(z.shape)
            return _original(z)
        monkeypatch.setattr(channel_module, "psd_inv_sqrt", counted)
        monkeypatch.setattr(decoupling, "psd_inv_sqrt", counted)
        ArrayFactors.of(end_fire(8, 0.1)).re_inv_sqrt
        assert calls == [(8, 8)]
        for alpha in (0.0, 0.7, np.pi / 2):
            array_gain(Scenario(n=8, spacing=0.1, alpha_tx=alpha, alpha_rx=np.pi - alpha))
        assert calls == [(8, 8)]

    @pytest.mark.parametrize("s", [end_fire(8, 0.1), end_fire(5, 0.3, gamma_loss=0.1)])
    def test_hand_built_channel_whitens_its_own_z_r(self, s):
        los = build_los_scenario(s)
        hand = ImpedanceChannel(los.z_ds, los.z_dr, los.z_rs, np.array(los.z_r), los.R)
        assert hand.z_r is not los.z_r
        got, want = closed_form_siso(hand), closed_form_siso(los)
        assert got.gain == want.gain
        assert got.theta.tobytes() == want.theta.tobytes()
        assert got.x.tobytes() == want.x.tobytes()

    def test_no_public_callable_takes_factors(self):
        seen, takes = set(), set()
        for info in pkgutil.iter_modules(riscoupling.__path__):
            module = importlib.import_module(f"riscoupling.{info.name}")
            for name, obj in vars(module).items():
                if (name.startswith("_") or not callable(obj)
                        or getattr(obj, "__module__", None) != module.__name__
                        or isinstance(obj, type) and issubclass(obj, Exception)):
                    continue
                seen.add(name)
                if "factors" in inspect.signature(obj).parameters:
                    takes.add(name)
        assert {"ImpedanceChannel", "ArrayFactors", "build_los_scenario", "array_gain",
                "ignore_mc_gain", "effective_channel", "closed_form_siso"} <= seen
        assert takes == set()


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
        rec = SweepRecord("s", "Decoupled", end_fire(4, 0.25), -1, 16.0, 0.1)
        path = tmp_path / "one.csv"
        write_csv([rec], path)
        lines = path.read_text().splitlines()
        assert len(lines) == 2
        assert lines[0] == CSV_HEADER
        assert lines[1] == ("s,Decoupled,4,0.25,0.0,3.141592653589793,0.0,-1,"
                            "16.0,12.041199826559248,0.1,")

    def test_shortest_round_trip_floats(self, tmp_path):
        gain = 163.08229291828144
        rec = SweepRecord("s", "Decoupled", end_fire(4, 0.25), -1, gain, 0.0)
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

    def test_repeated_point_exit_code(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(MINIMAL.replace("N = 4", "N = 4, 4"))
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path)]) == 1
        assert list(tmp_path.glob("*.csv")) == []

    def test_csv_breaking_scenario_id_exit_code(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        for scenario_id in ("a,b", ""):
            cfg.write_text(f"scenario_id = {scenario_id}\n" + MINIMAL)
            assert main(["run", "--config", str(cfg), "--out", str(tmp_path)]) == 1
            assert list(tmp_path.glob("*.csv")) == []

    def test_unwritable_out_fails_before_the_sweep(self, tmp_path, monkeypatch, capsys):
        cfg = tmp_path / "spec.cfg"
        calls = []
        monkeypatch.setattr(cli, "run_sweep", lambda *a, **k: calls.append(a))
        # --out is a file, or the config's output path runs under one
        for text, out in ((MINIMAL, cfg), (MINIMAL + "output = spec.cfg/x.csv\n", tmp_path)):
            cfg.write_text(text)
            assert main(["run", "--config", str(cfg), "--out", str(out)]) == 1
            assert calls == []
            assert "error: cannot write output:" in capsys.readouterr().err

    def test_output_directory_made_before_the_sweep(self, tmp_path):
        cfg = tmp_path / "spec.cfg"
        cfg.write_text(MINIMAL + "output = sub/deeper/x.csv\n")
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
        assert (tmp_path / "out" / "sub" / "deeper" / "x.csv").read_text().startswith(CSV_HEADER)

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
