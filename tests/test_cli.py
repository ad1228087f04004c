import io
import math
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import sqclick
from sqclick import (
    ensemble,
    estimate,
    gain_bounds_from_trace,
    modes,
    no_click_from_invariants,
    variances_from_invariants,
)
from sqclick.cli import build_parser, main
from sqclick.ensemble import eta_sweep, state_sweep
from sqclick.tables import (
    config_from_mapping,
    estimate_lines,
    parse_states,
    read_key_values,
    write_sweep,
)

TRACE0, DET0 = 2.321, 1.156

BASE_CONFIG = """\
rep_rate_hz = 780400
duration_s = 100
transmittances = 1, 0.75, 0.5, 0.25
eta_apd = 0.5
dark_rate_hz = 0
"""

SWEEP_CONFIG = """\
rep_rate_hz = 780400
duration_s = 0.02
transmittances = 1, 0.5
eta_apd = 0.5
t_uncertainty = 0.005
eta_rel_uncertainty = 0.01
state_trace = 2.321
state_det = 1.156
etas = 0.3, 0.6
states = 2.321,1.156; 2.5,1.2
"""


def record_dict(text):
    out = {}
    for line in text.splitlines():
        if " = " in line:
            key, value = line.split(" = ", 1)
            out[key] = value
    return out


def strip_created(text):
    return "\n".join(l for l in text.splitlines() if not l.startswith("# created"))


@pytest.fixture
def base_config(tmp_path):
    path = tmp_path / "base.cfg"
    path.write_text(BASE_CONFIG)
    return str(path)


class TestInvert:
    def test_roundtrip(self, capsys):
        p1 = no_click_from_invariants(TRACE0, DET0, 0.5)
        p2 = no_click_from_invariants(TRACE0, DET0, 0.25)
        code = main(
            ["invert", "--t1", "0.5", "--p1", repr(p1), "--t2", "0.25", "--p2", repr(p2)]
        )
        assert code == 0
        rec = record_dict(capsys.readouterr().out)
        assert float(rec["trace"]) == pytest.approx(TRACE0, abs=1e-9)
        assert float(rec["det"]) == pytest.approx(DET0, abs=1e-9)
        assert rec["physical"] == "true"

    def test_vacuum(self, capsys):
        code = main(["invert", "--t1", "0.8", "--p1", "1", "--t2", "0.3", "--p2", "1"])
        assert code == 0
        rec = record_dict(capsys.readouterr().out)
        assert float(rec["trace"]) == pytest.approx(2.0, abs=1e-12)
        assert float(rec["det"]) == pytest.approx(1.0, abs=1e-12)
        assert float(rec["purity"]) == pytest.approx(1.0, abs=1e-12)

    def test_unphysical_result_warns(self, capsys):
        # a small bump on p1 at percent-scale transmittances drives the
        # raw determinant below 1
        t1, t2 = 0.008, 0.004
        p1 = no_click_from_invariants(TRACE0, DET0, t1) + 2e-6
        p2 = no_click_from_invariants(TRACE0, DET0, t2)
        code = main(
            ["invert", "--t1", repr(t1), "--p1", repr(p1), "--t2", repr(t2), "--p2", repr(p2)]
        )
        assert code == 0
        out = capsys.readouterr().out
        rec = record_dict(out)
        assert rec["physical"] == "false"
        assert float(rec["det"]) < 1.0
        assert "warning" in out

    def test_negative_trace_is_unphysical(self, capsys):
        # u1 = 4/0.09 - 4 at t1 = 1 with no clicks at t2 = 0.5 solves to
        # trace = 2 - u1/2 < 0 with det <= (trace/2)^2
        assert main(["invert", "--t1", "1", "--p1", "0.3", "--t2", "0.5", "--p2", "1"]) == 0
        rec = record_dict(capsys.readouterr().out)
        assert rec["physical"] == "false"
        assert float(rec["trace"]) < 0.0
        assert rec["warning"] == ("unphysical result: 1 <= det <= (trace/2)^2 and trace > 0 "
                                  "violated; derived quantities omitted")

    def test_trace_whose_square_overflows_is_unphysical(self, capsys):
        # u1 = 4e160, u2 = 2.04e160 solve to trace ~ 2e160 with det ~ 2e160
        assert main(["invert", "--t1", "1", "--p1", "1e-80", "--t2", "0.5", "--p2", "1.4e-80"]) == 0
        rec = record_dict(capsys.readouterr().out)
        assert rec["physical"] == "false"
        assert 1.0 < float(rec["det"]) < float(rec["trace"]) < math.inf
        assert rec["warning"] == ("unphysical result: 1 <= det <= (trace/2)^2 and a finite "
                                  "trace^2 violated; derived quantities omitted")

    def test_eta_folds_into_transmittances(self, capsys):
        p1 = no_click_from_invariants(TRACE0, DET0, 0.5 * 0.5)
        p2 = no_click_from_invariants(TRACE0, DET0, 0.5 * 0.25)
        code = main(
            [
                "invert",
                "--t1", "0.5", "--p1", repr(p1),
                "--t2", "0.25", "--p2", repr(p2),
                "--eta", "0.5",
            ]
        )
        assert code == 0
        rec = record_dict(capsys.readouterr().out)
        assert float(rec["trace"]) == pytest.approx(TRACE0, abs=1e-9)

    def test_degenerate_exit_code(self, capsys):
        code = main(
            ["invert", "--t1", "0.5", "--p1", "0.9", "--t2", "0.5", "--p2", "0.9"]
        )
        assert code == 4

    def test_domain_exit_code(self, capsys):
        code = main(
            ["invert", "--t1", "1.2", "--p1", "0.9", "--t2", "0.5", "--p2", "0.9"]
        )
        assert code == 3

    @pytest.mark.parametrize("t1, p1", [("0.5", "1e-300"), ("1e-300", "0.5"), ("0.5", "1e-160")])
    def test_non_finite_inversion_exit_code(self, t1, p1, capsys):
        code = main(["invert", "--t1", t1, "--p1", p1, "--t2", "0.25", "--p2", "0.9"])
        assert code == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "no finite inversion" in captured.err

    @pytest.mark.parametrize(
        "flag, t1, t2, eta",
        [("t1", "1.6", "0.25", "0.5"), ("t2", "0.5", "1.5", "0.5"), ("eta", "0.5", "0.25", "2")],
    )
    def test_flag_outside_unit_interval_exit_code(self, flag, t1, t2, eta, capsys):
        # each product eta*t lies in (0, 1], so only the flags themselves are out of range
        code = main(["invert", "--t1", t1, "--p1", "0.9", "--t2", t2, "--p2", "0.95",
                     "--eta", eta])
        assert code == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"--{flag} " in captured.err


@pytest.mark.parametrize(
    "trace, det", [(TRACE0, DET0), (3.0, 1.5), (2.05, 1.001), (10.0, 4.0)]
)
def test_invert_summary_matches_estimate_record(trace, det, capsys):
    t1, t2 = 0.5, 0.25
    p1, p2 = (no_click_from_invariants(trace, det, t) for t in (t1, t2))
    assert main(["invert", "--t1", repr(t1), "--p1", repr(p1), "--t2", repr(t2),
                 "--p2", repr(p2)]) == 0
    inverted = capsys.readouterr().out.splitlines()
    trace_inv, det_inv = estimate.invert_two_point(t1, p1, t2, p2)
    qv = variances_from_invariants(trace_inv, det_inv)
    g_max, h_max = gain_bounds_from_trace(trace_inv)
    est = estimate.Estimate(trace=trace_inv, det=det_inv, det_reliable=True, vmin=qv.vmin,
                            vmax=qv.vmax, purity=1.0 / math.sqrt(det_inv), g_max_bound=g_max,
                            h_max_bound=h_max, log_likelihood_at_max=0.0)
    summary = estimate_lines(est)[3:8]
    assert [line.split(" = ")[0] for line in summary] == [
        "vmin", "vmax", "purity", "g_max_bound", "h_max_bound"]
    assert inverted[:2] == estimate_lines(est)[:2]
    assert inverted[2:] == ["physical = true"] + summary


class TestSimulate:
    def test_reference_defaults_to_file(self, base_config, tmp_path):
        out = tmp_path / "clicks.csv"
        code = main(
            [
                "simulate",
                "--config", base_config,
                "--trace", "2.321", "--det", "1.156",
                "--seed", "7",
                "--output", str(out),
            ]
        )
        assert code == 0
        text = out.read_text()
        assert "# sqclick manifest" in text
        assert "# state_g = " in text  # both state forms echoed
        assert len([l for l in text.splitlines() if not l.startswith(("#", "t_nominal"))]) == 4

    def test_vacuum_gives_zero_clicks(self, base_config, capsys):
        code = main(
            ["simulate", "--config", base_config, "--trace", "2", "--det", "1", "--seed", "1"]
        )
        assert code == 0
        rows = [
            l for l in capsys.readouterr().out.splitlines()
            if not l.startswith(("#", "t_nominal"))
        ]
        assert all(int(r.split(",")[2]) == 0 for r in rows)

    def test_same_seed_identical_output(self, base_config, tmp_path):
        path = tmp_path / "a.csv"
        argv = [
            "simulate",
            "--config", base_config,
            "--g", "1.7", "--h", "1.08",
            "--seed", "11",
            "--output", str(path),
        ]
        assert main(argv) == 0
        first = strip_created(path.read_text())
        assert main(argv) == 0
        assert strip_created(path.read_text()) == first

    def test_state_forms_are_equivalent(self, base_config, tmp_path):
        path = tmp_path / "a.csv"
        assert main(
            ["simulate", "--config", base_config, "--g", "2", "--h", "1",
             "--seed", "3", "--output", str(path)]
        ) == 0
        first = strip_created(path.read_text())
        assert main(
            ["simulate", "--config", base_config, "--trace", "2.5", "--det", "1",
             "--seed", "3", "--output", str(path)]
        ) == 0
        assert strip_created(path.read_text()) == first

    def test_thermal_edge_state_is_accepted(self, base_config, tmp_path):
        # det = (trace/2)^2: g = 1 exactly in theory, an ulp either side in floating point
        path = tmp_path / "thermal.csv"
        assert main(
            ["simulate", "--config", base_config, "--trace", "2.4", "--det", "1.44",
             "--seed", "3", "--output", str(path)]
        ) == 0
        assert "# state_g = 1\n" in path.read_text()

    def test_thermal_edge_state_at_large_trace_is_accepted(self, base_config, capsys):
        # vmin = det/vmax rounds an ulp above vmax here
        assert main(
            ["simulate", "--config", base_config, "--trace", "493497540156.7618",
             "--det", "6.088495553519368e+22"]
        ) == 0

    def test_state_within_phys_tol_above_the_thermal_edge_is_accepted(self, base_config, capsys):
        # check_physicality's tolerance: det may exceed (trace/2)^2 by PHYS_TOL
        assert main(
            ["simulate", "--config", base_config, "--trace", "4", "--det", "4.0000000005"]
        ) == 0

    def test_unphysical_state_exit_code(self, base_config):
        assert main(
            ["simulate", "--config", base_config, "--trace", "2", "--det", "1.5", "--seed", "1"]
        ) == 3

    @pytest.mark.parametrize("trace", ["1e200", "inf"])
    def test_trace_whose_square_overflows_exit_code(self, base_config, capsys, trace):
        assert main(["simulate", "--config", base_config, "--trace", trace, "--det", "1"]) == 3
        assert "is unphysical" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "state",
        [["--trace", "2.5", "--det", "1", "--g", "2", "--h", "1"], [], ["--trace", "2.5"]],
        ids=["both", "neither", "trace-without-det"],
    )
    def test_state_given_both_ways_or_neither_exit_code(self, base_config, capsys, state):
        assert main(["simulate", "--config", base_config, *state]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "specify the state as either --trace/--det or --g/--h" in captured.err

    @pytest.mark.parametrize("key", ["rep_rate_hz", "duration_s", "transmittances", "eta_apd"])
    def test_config_missing_required_key_exit_code(self, tmp_path, capsys, key):
        path = tmp_path / "bad.cfg"
        path.write_text("".join(l + "\n" for l in BASE_CONFIG.splitlines()
                                if not l.startswith(key)))
        assert main(
            ["simulate", "--config", str(path), "--trace", "2.5", "--det", "1", "--seed", "1"]
        ) == 2
        assert f"missing required config key '{key}'" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "line",
        ["rep_rate_hz = inf", "duration_s = nan", "dark_rate_hz = nan", "t_uncertainty = nan",
         "eta_rel_uncertainty = nan"],
    )
    def test_non_finite_config_exit_code(self, tmp_path, capsys, line):
        key = line.split(" = ")[0]
        path = tmp_path / "bad.cfg"
        path.write_text(
            "".join(l + "\n" for l in BASE_CONFIG.splitlines() if not l.startswith(key))
            + line + "\n"
        )
        assert main(
            ["simulate", "--config", str(path), "--trace", "2.5", "--det", "1", "--seed", "1"]
        ) == 2
        assert "is not finite" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "line, message",
        [("dark_rate = 300", "unknown config key 'dark_rate'"),
         ("eta_apd = 0.25", "bad.cfg:6: key 'eta_apd' given twice")],
        ids=["misspelled", "repeated"],
    )
    def test_unknown_or_repeated_config_key_exit_code(self, tmp_path, capsys, line, message):
        path = tmp_path / "bad.cfg"
        path.write_text(BASE_CONFIG + line + "\n")
        assert main(
            ["simulate", "--config", str(path), "--trace", "2.5", "--det", "1", "--seed", "1"]
        ) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert message in captured.err

    def test_unrepresentable_pulse_count_exit_code(self, tmp_path, capsys):
        path = tmp_path / "bad.cfg"
        path.write_text(BASE_CONFIG.replace("rep_rate_hz = 780400", "rep_rate_hz = 1e15")
                        .replace("duration_s = 100", "duration_s = 1e15"))
        assert main(
            ["simulate", "--config", str(path), "--trace", "2.5", "--det", "1", "--seed", "1"]
        ) == 2
        assert "pulses per setting exceeds" in capsys.readouterr().err

    def test_dark_count_total_above_pulses_exit_code(self, tmp_path, capsys):
        # more expected dark counts per setting than pulses is refused as a config
        # error: an on/off detector clicks at most once per pulse
        path = tmp_path / "bad.cfg"
        path.write_text(BASE_CONFIG.replace("dark_rate_hz = 0", "dark_rate_hz = 1e19")
                        .replace("duration_s = 100", "duration_s = 1"))
        assert main(
            ["simulate", "--config", str(path), "--trace", "2.5", "--det", "1", "--seed", "1"]
        ) == 2
        assert "dark_rate_hz" in capsys.readouterr().err

    def test_pulse_count_rounding_to_zero_exit_code(self, tmp_path, capsys):
        path = tmp_path / "bad.cfg"
        path.write_text(BASE_CONFIG.replace("rep_rate_hz = 780400", "rep_rate_hz = 1")
                        .replace("duration_s = 100", "duration_s = 0.2"))
        assert main(
            ["simulate", "--config", str(path), "--trace", "2.5", "--det", "1", "--seed", "1"]
        ) == 2
        assert "pulses per setting rounds to 0" in capsys.readouterr().err

    def test_missing_config_exit_code(self):
        assert main(
            ["simulate", "--config", "/nonexistent.cfg", "--trace", "2.5", "--det", "1",
             "--seed", "1"]
        ) == 2


class TestEstimate:
    def _simulate(self, base_config, tmp_path, seed=5):
        out = tmp_path / "clicks.csv"
        assert main(
            [
                "simulate",
                "--config", base_config,
                "--trace", "2.321", "--det", "1.156",
                "--seed", str(seed),
                "--output", str(out),
            ]
        ) == 0
        return out

    def test_end_to_end_recovery(self, base_config, tmp_path, capsys):
        data = self._simulate(base_config, tmp_path)
        code = main(["estimate", "--data", str(data), "--eta", "0.5"])
        assert code == 0
        rec = record_dict(capsys.readouterr().out)
        assert float(rec["trace"]) == pytest.approx(TRACE0, abs=0.02)
        assert float(rec["det"]) == pytest.approx(DET0, abs=0.05)
        assert rec["det_reliable"] == "true"

    def test_low_eta_reports_unreliable_det_with_bounds(self, tmp_path, capsys):
        cfg = tmp_path / "lowsig.cfg"
        cfg.write_text(BASE_CONFIG.replace("eta_apd = 0.5", "eta_apd = 0.0084"))
        data = tmp_path / "clicks.csv"
        assert main(
            ["simulate", "--config", str(cfg), "--trace", "2.321", "--det", "1.156",
             "--seed", "2", "--output", str(data)]
        ) == 0
        code = main(["estimate", "--data", str(data), "--eta", "0.0084"])
        assert code == 0
        rec = record_dict(capsys.readouterr().out)
        assert rec["det_reliable"] == "false"
        assert "g_max_bound" in rec and "h_max_bound" in rec
        assert float(rec["trace"]) == pytest.approx(TRACE0, abs=0.05)

    def test_all_zero_clicks_gives_vacuum(self, tmp_path, capsys):
        data = tmp_path / "zeros.csv"
        data.write_text(
            "t_nominal,trials,clicks,dark_subtracted\n1,1000,0,0\n0.5,1000,0,0\n"
        )
        code = main(["estimate", "--data", str(data), "--eta", "0.5"])
        assert code == 0
        rec = record_dict(capsys.readouterr().out)
        assert float(rec["trace"]) == 2.0
        assert float(rec["det"]) == 1.0

    @pytest.mark.parametrize(
        "rows",
        [
            "1,1000,30,0\n0.5,0,0,0\n",  # zero-trial row
            "0,1000,0,0\n0.5,1000,30,0\n",  # one informative transmittance
            "1,1000,1000,0\n0.5,1000,1000,0\n",  # every setting saturated
        ],
        ids=["zero-trials", "one-transmittance", "saturated"],
    )
    def test_degenerate_tables_exit_code(self, tmp_path, capsys, rows):
        data = tmp_path / "clicks.csv"
        data.write_text("t_nominal,trials,clicks,dark_subtracted\n" + rows)
        assert main(["estimate", "--data", str(data), "--eta", "0.5"]) == 4
        err = capsys.readouterr().err
        assert err.startswith("sqclick: error:")
        assert "Traceback" not in err

    @pytest.mark.parametrize("t", ["1.5", "nan"])
    def test_transmittance_outside_unit_interval_exit_code(self, tmp_path, capsys, t):
        data = tmp_path / "clicks.csv"
        data.write_text(
            f"t_nominal,trials,clicks,dark_subtracted\n{t},100000,300,0\n0.5,100000,100,0\n"
        )
        assert main(["estimate", "--data", str(data), "--eta", "0.9"]) == 2
        assert "t_nominal" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "dark",
        [
            ["--dark-rate", "300", "--duration", "-100"],
            ["--dark-rate", "300", "--duration", "0"],
            ["--dark-rate", "-300", "--duration", "100"],
            ["--dark-rate", "-300"],
            ["--duration", "-100"],
            ["--dark-rate", "inf", "--duration", "100"],
            ["--dark-rate", "300", "--duration", "inf"],
            ["--dark-rate", "1e300", "--duration", "1e300"],
            ["--dark-rate", "0", "--duration", "inf"],
            ["--dark-rate", "1e9", "--duration", "1"],
        ],
        ids=[
            "negative-duration",
            "zero-duration",
            "negative-rate",
            "negative-rate-no-duration",
            "negative-duration-no-rate",
            "infinite-rate",
            "infinite-duration",
            "infinite-product",
            "zero-rate-infinite-duration",
            "more-dark-counts-than-trials",
        ],
    )
    def test_bad_dark_count_arguments_exit_code(self, base_config, tmp_path, capsys, dark):
        data = self._simulate(base_config, tmp_path)
        assert main(["estimate", "--data", str(data), "--eta", "0.5"] + dark) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "duration" in captured.err  # names the arguments at fault

    def test_efficiency_below_floor_exit_code(self, base_config, tmp_path, capsys):
        data = self._simulate(base_config, tmp_path)
        assert main(["estimate", "--data", str(data), "--eta", "1e-170"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "below the efficiency floor" in captured.err

    def test_roundtrip_file_format(self, base_config, tmp_path):
        # estimate consumes exactly what simulate emits, file to file
        data = self._simulate(base_config, tmp_path)
        out = tmp_path / "estimate.txt"
        assert main(
            ["estimate", "--data", str(data), "--eta", "0.5", "--output", str(out)]
        ) == 0
        assert "# sqclick manifest" in out.read_text()

    def test_trial_count_beyond_int64_exit_code(self, tmp_path, capsys):
        data = tmp_path / "clicks.csv"
        data.write_text(
            f"t_nominal,trials,clicks,dark_subtracted\n1,{'9' * 401},300,0\n0.5,100000,100,0\n"
        )
        assert main(["estimate", "--data", str(data), "--eta", "0.5"]) == 2
        err = capsys.readouterr().err
        assert f"{data}:2:" in err
        assert "trials" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("flag", ["2", "-3"])
    def test_dark_subtracted_flag_other_than_0_or_1_exit_code(self, tmp_path, capsys, flag):
        # read as true, such a row would silently skip the dark subtraction
        data = tmp_path / "clicks.csv"
        data.write_text(
            f"t_nominal,trials,clicks,dark_subtracted\n1,100000,300,0\n0.5,100000,100,{flag}\n"
        )
        argv = ["estimate", "--data", str(data), "--eta", "0.5"]
        assert main(argv + ["--dark-rate", "300", "--duration", "100"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"{data}:3: dark_subtracted = {flag} is not 0 or 1" in captured.err

    def test_singular_weighted_start_finds_interior_maximum(self, tmp_path, capsys):
        # one dark setting and three saturated ones make the weighted start singular;
        # the maximum is interior, far above the thermal edge once reported here
        n = 5_383_592
        rows = [(0.5, 0)] + [(t, n) for t in ("0.25", "0.664458068287437", "1")]
        data = tmp_path / "clicks.csv"
        data.write_text("t_nominal,trials,clicks,dark_subtracted\n"
                        + "".join(f"{t},{n},{c},0\n" for t, c in rows))
        assert main(["estimate", "--data", str(data), "--eta", "1"]) == 0
        rec = record_dict(capsys.readouterr().out)
        assert (rec["trace"], rec["det"]) == ("53.8891972306", "84.7725125099")
        assert rec["log_likelihood_at_max"] == "-12106052.1882"

    def test_missing_data_exit_code(self):
        assert main(["estimate", "--data", "/nonexistent.csv", "--eta", "0.5"]) == 2


class TestSweep:
    @pytest.fixture
    def sweep_config(self, tmp_path):
        path = tmp_path / "sweep.cfg"
        path.write_text(SWEEP_CONFIG)
        return str(path)

    def test_eta_mode(self, sweep_config, capsys):
        code = main(
            ["sweep", "--config", sweep_config, "--mode", "eta", "--seed", "1",
             "--runs", "2"]
        )
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith("trace_true,")
        assert len(lines) == 3
        for line in lines[1:]:
            assert all(math.isfinite(float(tok)) for tok in line.split(","))

    def test_state_mode_with_details(self, sweep_config, tmp_path):
        out = tmp_path / "sweep.csv"
        details = tmp_path / "runs.csv"
        code = main(
            ["sweep", "--config", sweep_config, "--mode", "state", "--seed", "1",
             "--runs", "2", "--output", str(out), "--details", str(details)]
        )
        assert code == 0
        assert len(out.read_text().splitlines()) >= 4  # manifest + header + 2 states
        rows = [
            l for l in details.read_text().splitlines()
            if not l.startswith(("#", "trace_true"))
        ]
        assert len(rows) == 4  # 2 states x 2 runs

    def test_determinism(self, sweep_config, tmp_path):
        path = tmp_path / "a.csv"
        argv = ["sweep", "--config", sweep_config, "--mode", "eta", "--seed", "9",
                "--runs", "2", "--output", str(path)]
        assert main(argv) == 0
        first = strip_created(path.read_text())
        assert main(argv) == 0
        assert strip_created(path.read_text()) == first

    @pytest.mark.parametrize("mode", ["eta", "state"])
    def test_exact_knowledge_flag_changes_results(self, sweep_config, capsys, mode):
        main(["sweep", "--config", sweep_config, "--mode", mode, "--seed", "1",
              "--runs", "2", "--exact-knowledge"])
        exact = capsys.readouterr().out
        main(["sweep", "--config", sweep_config, "--mode", mode, "--seed", "1",
              "--runs", "2"])
        noisy = capsys.readouterr().out
        assert exact != noisy

    @pytest.mark.parametrize("exact", [False, True])
    @pytest.mark.parametrize("mode", ["eta", "state"])
    def test_output_is_the_library_sweep(self, sweep_config, capsys, mode, exact):
        argv = ["sweep", "--config", sweep_config, "--mode", mode, "--seed", "5", "--runs", "3"]
        assert main(argv + ["--exact-knowledge"] * exact) == 0
        mapping = read_key_values(sweep_config)
        config = config_from_mapping(mapping)
        if exact:
            config = replace(config, t_uncertainty=0.0, eta_rel_uncertainty=0.0)
        if mode == "eta":
            results = eta_sweep(float(mapping["state_trace"]), float(mapping["state_det"]),
                                config, [0.3, 0.6], 3, with_uncertainties=True, seed=5)
        else:
            results = state_sweep(parse_states(mapping["states"]), config, 3, 5)
        expected = io.StringIO()
        write_sweep(expected, results, [])
        assert capsys.readouterr().out == expected.getvalue()

    def test_blocked_setting_with_calibration_noise(self, tmp_path, capsys):
        # a t = 0 setting must stay dark when the other settings are perturbed
        path = tmp_path / "blocked.cfg"
        path.write_text(
            SWEEP_CONFIG.replace("= 1, 0.5\n", "= 1, 0.75, 0.5, 0.25, 0\n")
        )
        argv = ["sweep", "--config", str(path), "--mode", "eta", "--seed", "4", "--runs", "5"]
        assert main(argv) == 0
        assert len(capsys.readouterr().out.splitlines()) == 3

    def test_blocked_setting_with_dark_counts(self, tmp_path, capsys):
        # dark clicks at a t = 0 setting are part of the fitted model, not an error
        path = tmp_path / "blocked_dark.cfg"
        path.write_text(SWEEP_CONFIG.replace("= 1, 0.5\n", "= 1, 0.5, 0.25, 0\n")
                        + "dark_rate_hz = 300\n")
        argv = ["sweep", "--config", str(path), "--mode", "eta", "--seed", "1", "--runs", "10"]
        assert main(argv) == 0
        assert len(capsys.readouterr().out.splitlines()) == 3

    @pytest.mark.parametrize(
        "old,new",
        [("etas = 0.3, 0.6", "etas = 0.1, abc"), ("state_trace = 2.321", "state_trace = 2.3x"),
         ("etas = 0.3, 0.6", "etas = 0.3, 1.5"), ("etas = 0.3, 0.6", "etas = 0.3, nan"),
         ("etas = 0.3, 0.6", "etas = ")],
    )
    def test_malformed_sweep_values_exit_code(self, tmp_path, capsys, old, new):
        # an etas value is refused by eta_apd's rule, as a config error naming etas
        path = tmp_path / "bad.cfg"
        path.write_text(SWEEP_CONFIG.replace(old, new))
        assert main(
            ["sweep", "--config", str(path), "--mode", "eta", "--seed", "1", "--runs", "2"]
        ) == 2
        assert new.split(" =")[0] in capsys.readouterr().err

    def test_dark_count_total_above_pulses_exit_code(self, tmp_path, capsys):
        # the same config error as for simulate: more expected dark counts per
        # setting than pulses, where an on/off detector clicks at most once a pulse
        path = tmp_path / "dark.cfg"
        path.write_text(SWEEP_CONFIG + "dark_rate_hz = 1e9\n")
        assert main(
            ["sweep", "--config", str(path), "--mode", "eta", "--seed", "1", "--runs", "2"]
        ) == 2
        assert "dark_rate_hz" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "mode, old, new, code, message",
        [("eta", "etas = 0.3, 0.6", "etas = 0.3, 0", 2,
          "config key 'etas': eta_assumed = 0.0 outside (0, 1]"),
         ("eta", "etas = 0.3, 0.6", "etas = 0.3, 1e-13", 2,
          "config key 'etas': eta_assumed = 1e-13 below the efficiency floor"),
         ("state", "2.5,1.2", "2,1.5", 3, "(trace, det) = (2.0, 1.5) is unphysical")],
        ids=["eta-zero", "eta-below-floor", "unphysical-state"],
    )
    def test_every_point_is_checked_before_any_runs(self, tmp_path, capsys, monkeypatch, mode,
                                                    old, new, code, message):
        calls = []
        monkeypatch.setattr(ensemble, "run_ensemble", lambda *args: calls.append(args))
        path = tmp_path / "bad.cfg"
        path.write_text(SWEEP_CONFIG.replace(old, new))
        assert main(["sweep", "--config", str(path), "--mode", mode, "--seed", "1", "--runs",
                     "2", "--exact-knowledge"]) == code
        assert message in capsys.readouterr().err
        assert calls == []

    def test_zero_eta_with_efficiency_noise_runs(self, tmp_path, capsys):
        # the drawn efficiencies are clipped to the floor, so the point runs
        path = tmp_path / "zero.cfg"
        path.write_text(SWEEP_CONFIG.replace("etas = 0.3, 0.6", "etas = 0.3, 0"))
        assert main(
            ["sweep", "--config", str(path), "--mode", "eta", "--seed", "1", "--runs", "2"]
        ) == 0
        assert len(capsys.readouterr().out.splitlines()) == 3

    def test_config_missing_sweep_keys(self, tmp_path):
        path = tmp_path / "bare.cfg"
        path.write_text(BASE_CONFIG)
        assert main(
            ["sweep", "--config", str(path), "--mode", "eta", "--seed", "1", "--runs", "2"]
        ) == 2


class TestModefit:
    def _write_samples(self, tmp_path, two_mode=False):
        ts = [0.05 + 0.07 * k for k in range(12)]
        lines = []
        for t in ts:
            p = no_click_from_invariants(TRACE0, DET0, t)
            if two_mode:
                p *= no_click_from_invariants(2.8, 1.4, t)
            lines.append(f"{t!r},{p!r}")
        path = tmp_path / ("two.csv" if two_mode else "one.csv")
        path.write_text("\n".join(lines) + "\n")
        return str(path)

    def test_single_mode(self, tmp_path, capsys):
        code = main(["modefit", "--data", self._write_samples(tmp_path), "--max-modes", "3"])
        assert code == 0
        rec = record_dict(capsys.readouterr().out)
        assert rec["n_modes"] == "1"
        assert float(rec["degree_2_rss"]) < 1e-15

    def test_two_mode(self, tmp_path, capsys):
        code = main(
            ["modefit", "--data", self._write_samples(tmp_path, two_mode=True),
             "--max-modes", "3"]
        )
        assert code == 0
        rec = record_dict(capsys.readouterr().out)
        assert rec["n_modes"] == "2"
        assert float(rec["degree_4_rss"]) < 1e-15

    def test_fit_table_built_once(self, tmp_path, monkeypatch):
        original = modes._mode_fit_table
        calls = []

        def counted(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(modes, "_mode_fit_table", counted)
        assert main(["modefit", "--data", self._write_samples(tmp_path), "--max-modes", "3"]) == 0
        assert len(calls) == 1

    def test_vacuum_reports_no_signal(self, tmp_path, capsys):
        path = tmp_path / "vac.csv"
        path.write_text("\n".join(f"0.{k + 1},1.0" for k in range(9)) + "\n")
        code = main(["modefit", "--data", str(path), "--max-modes", "3"])
        assert code == 0
        out = capsys.readouterr().out
        assert "n_modes = 0" in out
        assert "signal = none" in out

    def test_underdetermined_exit_code(self, tmp_path, capsys):
        path = tmp_path / "few.csv"
        path.write_text("0.1,0.99\n0.2,0.97\n0.3,0.95\n")
        assert main(["modefit", "--data", str(path), "--max-modes", "3"]) == 4

    def test_no_mode_count_fits_exit_code(self, tmp_path, capsys):
        # two modes measured to 1e-6: one mode leaves a residual far above its errors
        path = Path(self._write_samples(tmp_path, two_mode=True))
        path.write_text(path.read_text().replace("\n", ",1e-6\n"))
        assert main(["modefit", "--data", str(path), "--max-modes", "1"]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "no mode count up to 1 fits the samples" in captured.err

    @pytest.mark.parametrize(
        "text, message",
        [("0.1,0.99\n0.2,abc\n", ":2: could not convert string to float: 'abc'"),
         ("eff_t,p\n# no rows\n", ": no samples found")],
        ids=["non-numeric", "no-samples"],
    )
    def test_malformed_samples_file_exit_code(self, tmp_path, capsys, text, message):
        path = tmp_path / "samples.csv"
        path.write_text(text)
        assert main(["modefit", "--data", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"sqclick: error: {path}{message}" in captured.err

    @staticmethod
    def _sample_rows(sigma_p="1e-6"):
        rows = []
        for k in range(12):
            t = 0.05 + 0.07 * k
            rows.append([repr(t), repr(no_click_from_invariants(TRACE0, DET0, t)), sigma_p])
        return rows

    @staticmethod
    def _assert_domain_error(tmp_path, capfd, rows, message):
        # capfd, not capsys: a domain error must leave both file descriptors clean,
        # including of anything native code might write past sys.stdout
        path = tmp_path / "samples.txt"
        path.write_text("".join(" ".join(row) + "\n" for row in rows))
        assert main(["modefit", "--data", str(path), "--max-modes", "3"]) == 3
        captured = capfd.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"sqclick: error: {message}")

    @pytest.mark.parametrize(
        "column,value,message",
        [(1, "nan", "no-click probabilities must lie in (0, 1]"),
         (2, "nan", "sigma_p values must be finite and positive"),
         (0, "nan", "effective transmittances must lie in [0, 1]"),
         (2, "inf", "sigma_p values must be finite and positive"),
         (0, "2", "effective transmittances must lie in [0, 1]"),
         (1, "1e-160", "the samples overflow the fit in float64"),
         (2, "1e308", "the samples overflow the fit in float64")],
        ids=["p-nan", "sigma-nan", "eff-t-nan", "sigma-inf", "eff-t-above-one",
             "p-overflowing-4-over-p-squared", "sigma-overflowing-its-propagated-error"],
    )
    def test_sample_outside_domain_exit_code(self, tmp_path, capfd, column, value, message):
        rows = self._sample_rows()
        rows[3][column] = value
        self._assert_domain_error(tmp_path, capfd, rows, message)

    @pytest.mark.parametrize("sigma_p", ["1e-300", "1e-200"])
    def test_sigma_overflowing_chi2_exit_code(self, tmp_path, capfd, sigma_p):
        # every residual over so small an error would square past the float range;
        # the resolution check on the first sample refuses it before the fit
        self._assert_domain_error(tmp_path, capfd, self._sample_rows(sigma_p),
                                  f"sample 1 (eff_t = 0.05): sigma_p = {sigma_p} is below "
                                  "the float resolution")

    @pytest.mark.parametrize("sigma_p", ["1e-17", "1e-18", "1e-20", "1e-30"])
    def test_sigma_below_resolution_of_p_exit_code(self, tmp_path, capfd, sigma_p):
        # one row pinned below the rounding of its p: whether its chi^2 term is 0,
        # finite or overflowing would rest on how the residual rounds
        rows = self._sample_rows()
        rows[3][2] = sigma_p
        self._assert_domain_error(tmp_path, capfd, rows,
                                  f"sample 4 (eff_t = {rows[3][0]}): sigma_p = {sigma_p} "
                                  "is below the float resolution")

    def test_sigma_on_some_samples_only_exit_code(self, tmp_path, capfd):
        rows = self._sample_rows()
        for row in rows[6:]:
            row.pop()
        self._assert_domain_error(tmp_path, capfd, rows, "6 of the 12 samples carry sigma_p")


def command_argv(command, tmp_path):
    """argv of a successful run of ``command``, with its input files under tmp_path."""
    config = tmp_path / "experiment.cfg"
    config.write_text(SWEEP_CONFIG)
    simulate = ["simulate", "--config", str(config), "--trace", "2.321", "--det", "1.156",
                "--seed", "3"]
    if command == "simulate":
        return simulate
    if command == "estimate":
        clicks = tmp_path / "clicks.csv"
        assert main(simulate + ["--output", str(clicks)]) == 0
        return ["estimate", "--data", str(clicks), "--eta", "0.5"]
    if command == "invert":
        return ["invert", "--t1", "0.5", "--p1", "0.96676", "--t2", "0.25", "--p2", "0.98294"]
    if command == "sweep":
        return ["sweep", "--config", str(config), "--mode", "eta", "--seed", "1", "--runs", "2"]
    samples = tmp_path / "samples.csv"
    samples.write_text("".join(f"{t},{no_click_from_invariants(TRACE0, DET0, t)!r}\n"
                               for t in (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8)))
    return ["modefit", "--data", str(samples), "--max-modes", "3"]


@pytest.mark.parametrize("command", ["invert", "simulate", "estimate", "sweep", "modefit"])
def test_output_file_is_manifest_then_stdout(command, tmp_path, capsys):
    argv = command_argv(command, tmp_path)
    assert main(argv) == 0
    stdout = capsys.readouterr().out
    path = tmp_path / "out.txt"
    assert main(argv + ["--output", str(path)]) == 0
    assert capsys.readouterr().out == ""
    lines = path.read_text().splitlines(keepends=True)
    n_manifest = next(k for k, line in enumerate(lines) if not line.startswith("#"))
    assert lines[0] == "# sqclick manifest\n"
    assert f"# command = {command}\n" in lines[:n_manifest]
    assert "".join(lines[n_manifest:]) == stdout


@pytest.mark.parametrize("seed", [-5, 2**64, 2**64 + 5])
@pytest.mark.parametrize("command", ["simulate", "sweep"])
def test_seed_outside_64_bits_exit_code(command, seed, tmp_path, capsys):
    # derive_seed reduces a master mod 2**64: 2**64 + 5 would run the sweep of --seed 5
    argv = command_argv(command, tmp_path)
    argv[argv.index("--seed") + 1] = str(seed)
    assert main(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--seed" in captured.err


@pytest.mark.parametrize(
    "command, options, recorded",
    [
        ("estimate", ["--dark-rate", "300", "--duration", "1"],
         ["# dark_rate = 300\n", "# duration = 1\n"]),
        ("sweep", ["--details", "runs.csv"], ["# details = runs.csv\n"]),
    ],
    ids=["estimate-dark-counts", "sweep-details"],
)
def test_manifest_records_options_that_change_output(command, options, recorded, tmp_path,
                                                     monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(command_argv(command, tmp_path) + options + ["--output", "out.txt"]) == 0
    text = (tmp_path / "out.txt").read_text()
    manifest = [line for line in text.splitlines(keepends=True) if line.startswith("#")]
    for line in recorded:
        assert line in manifest


@pytest.mark.parametrize("command", ["invert", "simulate", "estimate", "sweep", "modefit"])
def test_manifest_records_every_parsed_option(command, tmp_path):
    argv = command_argv(command, tmp_path) + ["--output", str(tmp_path / "out.txt")]
    options = set(vars(build_parser().parse_args(argv))) - {"command", "func"}
    assert main(argv) == 0
    manifest = (tmp_path / "out.txt").read_text().split("# created = ")[0]
    assert {key for key in options if f"\n# {key} = " not in manifest} == set()


def test_cli_import_leaves_random_modules_unloaded():
    # numpy.random costs about 20 ms to import, which estimate, invert and
    # modefit never use; simulate and sweep import it when they draw
    code = ("import sys, sqclick.cli; "
            "print([m for m in ('numpy.random', 'sqclick.ensemble') if m in sys.modules])")
    src = str(Path(sqclick.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env,
                          check=True, timeout=60)
    assert done.stdout.strip() == "[]"
