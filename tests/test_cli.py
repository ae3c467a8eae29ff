import io
import json
import math
import warnings
from dataclasses import replace

import pytest

from cavrate import cli
from cavrate import multilayer as ml
from cavrate import oracle, rates
from cavrate import verify as verify_mod
from cavrate.dielectric import eval_lorentz
from cavrate.errors import ConfigError, ExpansionRangeWarning, QuadratureFailure


def quick_config(**overrides):
    kwargs = {"omega_min": 0.5, "omega_max": 1.5, "omega_count": 5}
    kwargs.update(overrides)
    return cli.SweepConfig(**kwargs)


def scalar_row(config, omega):
    """One sweep row from scalar eval_lorentz and rate_report calls."""
    perm = eval_lorentz(config.medium, omega)
    report = rates.rate_report(perm.eps, config.eps_ext, config.sphere_radius,
                               config.onsager_radius(omega),
                               config.rm_radius(omega), omega)
    return dict(vars(report), omega=omega, eps_re=perm.eps.real,
                eps_im=perm.eps.imag, eta=perm.eta, kappa=perm.kappa,
                gamma_hat=report.gamma_hat,
                naive_loc_hat=report.onsager_factor * report.gamma_hat)


class TestSweepConfig:
    def test_defaults_are_valid(self):
        config = cli.SweepConfig()
        assert config.medium.eps_b == 5.0
        assert config.sphere_radius == 2.0
        assert config.columns == cli.COLUMNS

    def test_grid_refinement_is_bit_exact(self):
        coarse = quick_config(omega_count=11)
        fine = quick_config(omega_count=21)
        cg, fg = coarse.omega_grid(), fine.omega_grid()
        assert cg == fg[::2]
        assert all(a < b for a, b in zip(cg, cg[1:]))

    def test_single_point_grid(self):
        assert quick_config(omega_count=1).omega_grid() == [0.5]

    @pytest.mark.parametrize("kwargs", [
        {"omega_min": 0.0}, {"omega_min": -1.0},
        {"omega_max": 0.4}, {"omega_count": 0},
        {"sphere_radius": 0.0}, {"onsager_fraction": 0.0},
        {"onsager_fraction": 0.2}, {"lambda_reference": "vacuum"},
        {"rm_mode": "fixed"}, {"rm_mode": "explicit"},
        {"rm_mode": "explicit", "rm_value": -1.0},
        {"eps_ext": 1 - 0.5j}, {"columns": ("omega", "bogus")},
    ])
    def test_validation(self, kwargs):
        with pytest.raises(ConfigError):
            quick_config(**kwargs)

    def test_fraction_warning(self):
        with pytest.warns(ExpansionRangeWarning):
            quick_config(onsager_fraction=0.1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            quick_config(onsager_fraction=0.04)

    def test_onsager_radius_tracks_the_transition(self):
        config = quick_config(onsager_fraction=0.04)
        # fraction of the wavelength at the sweep frequency: k0 R_c fixed
        for omega in (0.5, 1.0, 2.0):
            assert omega * config.onsager_radius(omega) \
                == pytest.approx(0.08 * 3.141592653589793, rel=1e-15)
        fixed = quick_config(onsager_fraction=0.04,
                             lambda_reference="resonance")
        assert fixed.onsager_radius(0.5) == fixed.onsager_radius(2.0)

    def test_rm_modes(self):
        config = quick_config(onsager_fraction=0.04)
        assert config.rm_radius(1.0) == config.onsager_radius(1.0)
        explicit = quick_config(onsager_fraction=0.04, rm_mode="explicit",
                                rm_value=0.3)
        assert explicit.rm_radius(1.0) == 0.3


class TestPresets:
    def test_known_presets(self):
        for name in cli.PRESET_NAMES:
            config = cli.get_preset(name)
            assert config.medium.eps_b == 5.0
            assert config.medium.Omega == 0.5
            assert config.medium.gamma == 0.1
            assert config.sphere_radius == 2.0
            assert config.eps_ext == 1
        assert cli.get_preset("fig3").onsager_fraction == 0.1
        assert cli.get_preset("fig4").onsager_fraction == 0.03

    def test_unknown_preset(self):
        with pytest.raises(ConfigError):
            cli.get_preset("fig9")


class TestSweep:
    def test_row_at_resonance(self):
        rows = cli.run_sweep(quick_config(omega_count=3))
        mid = rows[1]
        assert mid["omega"] == 1.0
        assert mid["eps_re"] == pytest.approx(5.0, rel=1e-14)
        assert mid["eps_im"] == pytest.approx(2.5, rel=1e-14)
        assert mid["gamma_hat"] \
            == pytest.approx(mid["gamma0_hat"] + mid["gamma_sc_hat"],
                             rel=1e-15)
        assert mid["naive_loc_hat"] \
            == pytest.approx(mid["onsager_factor"] * mid["gamma_hat"],
                             rel=1e-15)

    @pytest.mark.parametrize("preset", ["fig2", "fig3", "fig4"])
    def test_every_row_satisfies_corrected_rate_identity(self, preset):
        # the corrected cavity rate, taken straight from c1, against the
        # form built from the bare rate and shift of the same row
        for row in cli.run_sweep(cli.get_preset(preset)):
            eps = complex(row["eps_re"], row["eps_im"])
            direct = row["gamma_sc_loc_hat"]
            alt = rates.gamma_sc_loc_from_bare(eps, row["gamma_sc_hat"],
                                               row["delta_sc_hat"])
            assert abs(direct - alt) <= 1e-12 * max(1.0, abs(direct),
                                                   abs(alt)), row["omega"]

    def test_rows_ordered_and_complete(self):
        config = quick_config()
        rows = cli.run_sweep(config)
        omegas = [r["omega"] for r in rows]
        assert omegas == sorted(omegas)
        assert all(set(r) == set(cli.COLUMNS) for r in rows)

    def test_determinism_byte_identical(self):
        config = quick_config(omega_count=31)
        a, b = io.StringIO(), io.StringIO()
        cli.write_csv(cli.run_sweep(config), config, a)
        cli.write_csv(cli.run_sweep(config), config, b)
        assert a.getvalue() == b.getvalue()

    @pytest.mark.parametrize("count", [601, 2401])
    @pytest.mark.parametrize("preset", ["fig2", "fig3", "fig4"])
    def test_rows_match_the_scalar_route(self, preset, count):
        # the array pass may differ from one rate_report per frequency in
        # the last ulps only: FMA complex products and SIMD abs
        config = replace(cli.get_preset(preset), omega_count=count)
        rows = cli.run_sweep(config)
        for row, omega in zip(rows, config.omega_grid(), strict=True):
            assert all(type(v) is float for v in row.values())
            ref = scalar_row(config, omega)
            for c in cli.COLUMNS:
                a, b = row[c], ref[c]
                assert abs(a - b) <= 1e-13 * max(1, abs(a), abs(b)), (omega, c)

    # the longer grids put the same frequencies in the vectorized body and
    # in the remainder loop of numpy's SIMD kernels
    @pytest.mark.parametrize("n_coarse,n_fine", [(6, 11), (601, 1201)])
    def test_refinement_keeps_existing_rows(self, n_coarse, n_fine):
        coarse = quick_config(omega_count=n_coarse)
        fine = quick_config(omega_count=n_fine)
        a, b = io.StringIO(), io.StringIO()
        cli.write_csv(cli.run_sweep(coarse), coarse, a)
        cli.write_csv(cli.run_sweep(fine), fine, b)
        coarse_rows = a.getvalue().splitlines()[1:]
        fine_rows = b.getvalue().splitlines()[1:]
        assert coarse_rows == fine_rows[::2]

    def test_column_selection(self):
        config = quick_config(omega_count=2,
                              columns=("omega", "gamma_loc_hat"))
        out = io.StringIO()
        cli.write_csv(cli.run_sweep(config), config, out)
        header = out.getvalue().splitlines()[0]
        assert header == "omega,gamma_loc_hat"

    def test_json_round_trip(self):
        config = quick_config(omega_count=3)
        rows = cli.run_sweep(config)
        out = io.StringIO()
        cli.write_json(rows, config, out)
        back = json.loads(out.getvalue())
        assert len(back) == 3
        assert back[1]["omega"] == rows[1]["omega"]
        assert list(back[0]) == list(cli.COLUMNS)

    def test_csv_has_17_significant_digits(self):
        assert cli.format_value(1 / 3) == "0.33333333333333331"

    @pytest.mark.parametrize("columns", [cli.COLUMNS, ("kappa",)])
    def test_csv_rows_match_per_value_format(self, columns):
        config = quick_config(omega_count=7, columns=columns)
        rows = cli.run_sweep(config)
        rows.append(dict.fromkeys(cli.COLUMNS, -0.0) | {
            "omega": math.inf, "eps_re": math.nan, "eps_im": 1e-310,
            "eta": 5e-324, "kappa": 1.7976931348623157e308})
        out = io.StringIO()
        cli.write_csv(rows, config, out)
        expected = [",".join(columns)] + [
            ",".join(format(float(row[c]), ".17g") for c in columns)
            for row in rows]
        assert out.getvalue() == "\n".join(expected) + "\n"

    def test_off_resonance_amplitude_scaling(self):
        # where absorption is negligible, the corrected cavity rate is the
        # bare one scaled by the static local-field factor (about 1.85)
        rows = cli.run_sweep(cli.get_preset("fig2"))
        for row in rows:
            if not (row["omega"] < 0.45 or row["omega"] > 1.8):
                continue
            if abs(row["gamma_sc_hat"]) < 0.2:
                continue  # skip oscillation zero crossings
            ratio = row["gamma_sc_loc_hat"] / row["gamma_sc_hat"]
            assert ratio == pytest.approx(row["onsager_factor"], rel=5e-3)
            assert 1.8 < ratio < 1.95

    def test_fig4_contributions_same_order(self):
        # with the smaller cavity the nonradiative part of the corrected
        # rate grows to the size of the radiative one
        from cavrate import rates
        from cavrate.dielectric import eval_lorentz
        config = cli.get_preset("fig4")
        omega = 1.0
        eps = eval_lorentz(config.medium, omega).eps
        nonrad = rates.cavity_nearfield(eps, omega,
                                        config.onsager_radius(omega))
        rad = eval_lorentz(config.medium, omega).eta
        assert 0.1 < nonrad / rad < 10.0


class TestConfigFile:
    def test_load_and_override(self, tmp_path):
        path = tmp_path / "sweep.cfg"
        path.write_text("""
[medium]
eps_b = 4.0
Omega = 0.3
gamma = 0.05

[geometry]
eps_ext = 1.5+0.2j
sphere_radius = 1.7
onsager_fraction = 0.03
rm_mode = explicit
rm_value = 0.21

[sweep]
omega_min = 0.4
omega_max = 1.6
omega_count = 7

[output]
columns = omega, gamma_loc_hat
verify = false
""")
        config = cli.load_config_file(str(path))
        assert config.medium.eps_b == 4.0
        assert config.medium.Omega == 0.3
        assert config.eps_ext == 1.5 + 0.2j
        assert config.sphere_radius == 1.7
        assert config.rm_value == 0.21
        assert config.omega_count == 7
        assert config.columns == ("omega", "gamma_loc_hat")

    def test_preset_plus_file(self, tmp_path):
        path = tmp_path / "tweak.cfg"
        path.write_text("[sweep]\nomega_count = 5\n")
        config = cli.load_config_file(str(path), cli.get_preset("fig4"))
        assert config.onsager_fraction == 0.03
        assert config.omega_count == 5

    def test_missing_file(self):
        with pytest.raises(ConfigError):
            cli.load_config_file("/nonexistent/sweep.cfg")

    def test_unknown_key_identified(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("[geometry]\nsphere_diameter = 2\n")
        with pytest.raises(ConfigError, match="sphere_diameter"):
            cli.load_config_file(str(path))

    def test_unknown_section_identified(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("[solver]\nx = 1\n")
        with pytest.raises(ConfigError, match="solver"):
            cli.load_config_file(str(path))

    def test_bad_value_identified(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("[sweep]\nomega_min = fast\n")
        with pytest.raises(ConfigError, match="omega_min"):
            cli.load_config_file(str(path))

    def test_bad_medium_value_is_config_error(self, tmp_path, capsys):
        path = tmp_path / "bad.cfg"
        path.write_text("[medium]\ngamma = -1\n")
        with pytest.raises(ConfigError, match="gamma"):
            cli.load_config_file(str(path))
        assert cli.main(["sweep", "--config", str(path)]) == 1
        assert "configuration error" in capsys.readouterr().err


class TestVerifyBattery:
    def test_default_battery_passes(self):
        report = verify_mod.run_battery(None)
        assert report.all_passed, "\n".join(report.lines())

    def test_corrupted_coefficient_is_caught(self, monkeypatch):
        true_fn = ml.coeffs_two_layer

        def corrupted(eps1, eps2, r1, k0):
            coeffs = true_fn(eps1, eps2, r1, k0)
            return ml.WaveCoefficients(
                c1=coeffs.c1 * (1 + 1e-4), c_plus=coeffs.c_plus,
                c_minus=coeffs.c_minus)

        monkeypatch.setattr(ml, "coeffs_two_layer", corrupted)
        report = verify_mod.run_battery(None)
        assert not report.all_passed
        failed = {c.name for c in report.checks if not c.passed}
        assert "solver_matches_closed_forms" in failed

    def test_numeric_failure_keeps_other_verdicts(self, monkeypatch, capsys):
        def boom(*args, **kwargs):
            raise QuadratureFailure("synthetic")

        monkeypatch.setattr(oracle, "absorbed_power", boom)
        report = verify_mod.run_battery(None)
        oracle_checks = {"check_oracle_power", "check_energy_balance",
                         "check_quadrature_convergence"}
        failed = [c for c in report.checks if c.name in oracle_checks]
        others = [c for c in report.checks if c.name not in oracle_checks]
        assert {c.name for c in failed} == oracle_checks
        assert not any(c.passed for c in failed)
        assert all("synthetic" in c.detail for c in failed)
        assert len(others) == 13
        assert all(c.passed for c in others), "\n".join(report.lines())
        assert cli.main(["verify"]) == 2
        out = capsys.readouterr().out.splitlines()
        assert len(out) == 17
        assert out[-1] == "16 checks, 3 failed"

    def test_lossless_config_battery_passes(self):
        from cavrate.dielectric import LorentzMedium
        config = quick_config(
            medium=LorentzMedium(eps_b=5.0, omega0=1.0, Omega=0.0, gamma=0.1),
            onsager_fraction=0.04)
        report = verify_mod.run_battery(config)
        assert report.all_passed, "\n".join(report.lines())

    def test_invalid_geometry_is_config_error(self):
        config = quick_config(sphere_radius=0.5)
        with pytest.raises(ConfigError):
            verify_mod.run_battery(config)
        assert cli.main(["verify"]) in (0,)  # default geometry still fine

    def test_lines_name_the_failures(self):
        report = verify_mod.VerificationReport(checks=(
            verify_mod.CheckResult("good", True, 0.0, 1.0),
            verify_mod.CheckResult("broken", False, 2.0, 1.0, "details"),
        ))
        text = "\n".join(report.lines())
        assert "FAIL  broken" in text
        assert "1 failed" in text


class TestMain:
    def test_sweep_to_csv_file(self, tmp_path):
        out = tmp_path / "rows.csv"
        code = cli.main(["sweep", "--preset", "fig4", "--out", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("omega,")
        assert len(lines) == 602

    def test_sweep_json(self, tmp_path):
        out = tmp_path / "rows.json"
        config = tmp_path / "tiny.cfg"
        config.write_text("[sweep]\nomega_count = 3\n"
                          "[geometry]\nonsager_fraction = 0.03\n")
        code = cli.main(["sweep", "--config", str(config),
                         "--out", str(out)])
        assert code == 0
        assert len(json.loads(out.read_text())) == 3

    def test_bad_preset_is_config_error(self, capsys):
        assert cli.main(["sweep", "--preset", "fig9"]) == 1
        assert "configuration error" in capsys.readouterr().err

    def test_bad_config_file_is_config_error(self):
        assert cli.main(["sweep", "--config", "/nope.cfg"]) == 1

    def test_overflowing_sphere_is_numeric_failure(self, tmp_path, capsys):
        # near resonance |Im k R| passes the double range at R = 1400: the
        # sweep must stop with exit 3 and write no row
        path = tmp_path / "big.cfg"
        path.write_text("[geometry]\nsphere_radius = 1400\n")
        assert cli.main(["sweep", "--config", str(path)]) == 3
        captured = capsys.readouterr()
        assert "numeric failure" in captured.err
        assert captured.out == ""

    def test_verify_failure_exit_code(self, monkeypatch):
        failing = verify_mod.VerificationReport(checks=(
            verify_mod.CheckResult("broken", False, 2.0, 1.0),))
        monkeypatch.setattr(verify_mod, "run_battery",
                            lambda config, seed=0: failing)
        assert cli.main(["verify", "--preset", "fig4"]) == 2

    def test_numeric_failure_exit_code(self, monkeypatch):
        def boom(config, seed=0):
            raise QuadratureFailure("synthetic")

        monkeypatch.setattr(verify_mod, "run_battery", boom)
        assert cli.main(["verify", "--preset", "fig4"]) == 3
