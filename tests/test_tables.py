import io

import pytest

from sqclick import ClickRecord, ExperimentConfig, run_ensemble
from sqclick.estimate import Estimate
from sqclick.tables import (
    ConfigError,
    config_from_mapping,
    estimate_lines,
    manifest_lines,
    parse_states,
    read_click_records,
    read_key_values,
    read_mode_samples,
    write_click_records,
    write_run_details,
    write_sweep,
)

CONFIG_TEXT = """\
# acquisition parameters
rep_rate_hz = 780400
duration_s = 100
transmittances = 1, 0.75, 0.5, 0.25
eta_apd = 0.5
dark_rate_hz = 0          # gated detection
t_uncertainty = 0.005
eta_rel_uncertainty = 0.01
"""


class TestConfigParsing:
    def test_full_config(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text(CONFIG_TEXT)
        cfg = config_from_mapping(read_key_values(path))
        assert cfg.rep_rate == 780400.0
        assert cfg.duration == 100.0
        assert cfg.transmittances == (1.0, 0.75, 0.5, 0.25)
        assert cfg.eta_apd == 0.5
        assert cfg.t_uncertainty == 0.005
        assert cfg.n_trials == 78_040_000

    def test_defaults_for_optional_keys(self):
        cfg = config_from_mapping(
            {
                "rep_rate_hz": "1000",
                "duration_s": "1",
                "transmittances": "1 0.5",
                "eta_apd": "0.3",
            }
        )
        assert cfg.dark_rate == 0.0
        assert cfg.eta_rel_uncertainty == 0.0

    def test_missing_key_rejected(self):
        with pytest.raises(ConfigError):
            config_from_mapping({"rep_rate_hz": "1000"})

    def test_bad_number_rejected(self):
        with pytest.raises(ConfigError):
            config_from_mapping(
                {
                    "rep_rate_hz": "fast",
                    "duration_s": "1",
                    "transmittances": "1",
                    "eta_apd": "0.3",
                }
            )

    def test_out_of_range_value_becomes_config_error(self):
        with pytest.raises(ConfigError):
            config_from_mapping(
                {
                    "rep_rate_hz": "1000",
                    "duration_s": "1",
                    "transmittances": "1, 1.5",
                    "eta_apd": "0.3",
                }
            )

    def test_malformed_line_rejected(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("rep_rate_hz 780400\n")
        with pytest.raises(ConfigError):
            read_key_values(path)

    def test_parse_states(self):
        assert parse_states("2.321,1.156; 2.5,1.2") == [(2.321, 1.156), (2.5, 1.2)]
        with pytest.raises(ConfigError):
            parse_states("2.321")
        with pytest.raises(ConfigError):
            parse_states("")


class TestClickTables:
    RECORDS = [
        ClickRecord(t_nominal=1.0, trials=78_040_000, clicks=52_340),
        ClickRecord(t_nominal=0.25, trials=78_040_000, clicks=13_099, dark_subtracted=True),
    ]

    def test_roundtrip(self, tmp_path):
        path = tmp_path / "clicks.csv"
        with open(path, "w") as fh:
            write_click_records(fh, self.RECORDS, manifest_lines("simulate", "0.1.0", seed=7))
        assert read_click_records(path) == self.RECORDS

    def test_manifest_present(self, tmp_path):
        path = tmp_path / "clicks.csv"
        with open(path, "w") as fh:
            write_click_records(fh, self.RECORDS, manifest_lines("simulate", "0.1.0", seed=7))
        text = path.read_text()
        assert "# sqclick manifest" in text
        assert "# seed = 7" in text
        assert "# created = " in text

    def test_bad_row_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("t_nominal,trials,clicks,dark_subtracted\n0.5,100\n")
        with pytest.raises(ConfigError):
            read_click_records(path)

    @pytest.mark.parametrize("t", ["1.5", "-0.25", "nan"])
    def test_transmittance_outside_unit_interval_rejected(self, tmp_path, t):
        path = tmp_path / "bad.csv"
        path.write_text(f"t_nominal,trials,clicks,dark_subtracted\n1,100,3,0\n{t},100,2,0\n")
        with pytest.raises(ConfigError, match=r"bad\.csv:3: t_nominal"):
            read_click_records(path)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("# nothing here\n")
        with pytest.raises(ConfigError):
            read_click_records(path)


class TestEstimateRecord:
    def test_lines(self):
        est = Estimate(
            trace=2.321,
            det=1.156,
            det_reliable=False,
            log_likelihood_at_max=-123.456,
            vmin=0.7237389097,
            vmax=1.5972610903,
            purity=0.9300871424,
            g_max_bound=1.7493635241,
            h_max_bound=1.08025,
        )
        lines = estimate_lines(est)
        assert "trace = 2.321" in lines
        assert "det_reliable = false" in lines
        assert any(line.startswith("purity = 0.930087") for line in lines)


class TestSweepTables:
    def _results(self):
        cfg = ExperimentConfig(
            rep_rate=780400.0, duration=0.02, transmittances=(1.0, 0.5), eta_apd=0.5
        )
        return [run_ensemble(2.321, 1.156, cfg, 2, seed=1)]

    def test_sweep_table(self):
        buf = io.StringIO()
        write_sweep(buf, self._results(), [])
        lines = buf.getvalue().splitlines()
        assert lines[0].startswith("trace_true,det_true,eta,")
        assert len(lines) == 2
        assert lines[1].startswith("2.321,1.156,0.5,2,")

    def test_run_details_table(self):
        buf = io.StringIO()
        write_run_details(buf, self._results(), [])
        lines = buf.getvalue().splitlines()
        assert len(lines) == 3  # header + one row per run


class TestModeSamples:
    def test_read_two_and_three_column_rows(self, tmp_path):
        path = tmp_path / "modes.csv"
        path.write_text("eff_t,p\n0.1,0.99\n0.2 0.97 0.001\n# comment\n")
        samples = read_mode_samples(path)
        assert samples == [(0.1, 0.99), (0.2, 0.97, 0.001)]

    def test_bad_rows_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("0.1\n")
        with pytest.raises(ConfigError):
            read_mode_samples(path)
