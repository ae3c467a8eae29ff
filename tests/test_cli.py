import contextlib
import io
import json
import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from collections import Counter
from dataclasses import replace
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cavrate import _gformat, cli
from cavrate import multilayer as ml
from cavrate import oracle, rates
from cavrate import specfun
from cavrate import verify as verify_mod
from cavrate.dielectric import eval_lorentz
from cavrate.errors import (ConfigError, DomainError, ExpansionRangeWarning,
                            IllConditioned, QuadratureFailure)
from conftest import passive_eps_samples


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
        {"rm_value": 0.5}, {"rm_mode": "equal_to_rc", "rm_value": 0.5},
    ])
    def test_validation(self, kwargs):
        with pytest.raises(ConfigError):
            quick_config(**kwargs)

    @pytest.mark.parametrize("kwargs", [
        {"onsager_fraction": 0.04}, {"onsager_fraction": 0.1},
        {"onsager_fraction": 0.159, "omega_max": 5.0},
        {"onsager_fraction": 0.04, "lambda_reference": "resonance",
         "omega_max": 2.0},
    ])
    def test_building_never_warns(self, kwargs):
        # the expansion range is judged by the rates a sweep evaluates
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            replace(quick_config(**kwargs), columns=("omega",))

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

    def test_rm_value_over_a_preset_needs_explicit_mode(self, tmp_path):
        # rm_value would otherwise be dropped: r_m stays equal to r_c
        path = tmp_path / "rm.cfg"
        path.write_text("[geometry]\nrm_value = 0.5\n")
        with pytest.raises(ConfigError, match="rm_value"):
            cli.load_config_file(str(path), cli.get_preset("fig3"))
        assert cli.main(["sweep", "--preset", "fig3", "--config", str(path),
                         "--out", str(tmp_path / "rows.csv")]) == 1
        assert not (tmp_path / "rows.csv").exists()


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

    @pytest.mark.parametrize("preset, x_max", [
        ("fig2", "0.628"), ("fig3", "0.628"), ("fig4", None)])
    def test_sweep_warns_once_with_its_largest_x(self, preset, x_max):
        with warnings.catch_warnings(record=True) as record:
            warnings.simplefilter("always")
            cli.run_sweep(cli.get_preset(preset))
        assert [w.category for w in record] \
            == [ExpansionRangeWarning] * (x_max is not None)
        if x_max is not None:
            assert f"k0*r_c = {x_max} " in str(record[0].message)
            assert record[0].filename == cli.__file__

    def test_resonance_reference_warns_from_the_grid(self):
        # R_c fixed at 0.04 of the resonance wavelength reaches
        # k0 R_c = 0.08 * 2 pi = 0.503 at omega_max = 2
        config = cli.SweepConfig(onsager_fraction=0.04,
                                 lambda_reference="resonance")
        with warnings.catch_warnings(record=True) as record:
            warnings.simplefilter("always")
            cli.run_sweep(config)
        assert [w.category for w in record] == [ExpansionRangeWarning]
        assert "k0*r_c = 0.503 " in str(record[0].message)

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

    @pytest.mark.parametrize("preset", ["fig2", "fig3", "fig4", None])
    def test_json_bytes_match_json_dump(self, preset):
        config = cli.get_preset(preset) if preset else quick_config()
        rows = cli.run_sweep(config)
        if preset is None:
            rows.columns["gamma0_hat"][1] = math.nan
            rows.columns["eta"][1] = math.inf
            rows.columns["kappa"][1] = -math.inf
        out, expected = io.StringIO(), io.StringIO()
        cli.write_json(rows, config, out)
        json.dump(list(rows), expected, indent=1)
        assert out.getvalue() == expected.getvalue() + "\n"
        for columns in (("omega",), ("kappa", "eta")):
            config = replace(config, columns=columns)
            out, expected = io.StringIO(), io.StringIO()
            cli.write_json(rows, config, out)
            json.dump([{c: row[c] for c in columns} for row in rows],
                      expected, indent=1)
            assert out.getvalue() == expected.getvalue() + "\n"

    def test_csv_has_17_significant_digits(self):
        assert "%.17g" % (1 / 3) == "0.33333333333333331"

    @pytest.mark.parametrize("columns", [cli.COLUMNS, ("kappa",)])
    def test_csv_rows_match_per_value_format(self, columns):
        config = quick_config(omega_count=7, columns=columns)
        extra = dict.fromkeys(cli.COLUMNS, -0.0) | {
            "omega": math.inf, "eps_re": math.nan, "eps_im": 1e-310,
            "eta": 5e-324, "kappa": 1.7976931348623157e308}
        rows = cli.Sweep({c: [*values, extra[c]] for c, values
                          in cli.run_sweep(config).columns.items()})
        assert len(rows) == config.omega_count + 1
        out = io.StringIO()
        cli.write_csv(rows, config, out)
        expected = [",".join(columns)] + [
            ",".join(format(float(row[c]), ".17g") for c in columns)
            for row in rows]
        assert out.getvalue() == "\n".join(expected) + "\n"

    @pytest.mark.parametrize("count", [601, 2401])
    @pytest.mark.parametrize("preset", ["fig2", "fig3", "fig4"])
    def test_csv_bytes_match_per_value_format(self, preset, count):
        config = replace(cli.get_preset(preset), omega_count=count)
        rows = cli.run_sweep(config)
        out = io.StringIO()
        cli.write_csv(rows, config, out)
        expected = [",".join(cli.COLUMNS)] + [
            ",".join(format(row[c], ".17g") for c in cli.COLUMNS)
            for row in rows]
        assert out.getvalue() == "\n".join(expected) + "\n"

    @pytest.mark.parametrize("shortest", [False, True])
    @pytest.mark.parametrize("preset", ["fig2", "fig3", "fig4"])
    def test_writers_certify_the_preset_values(self, preset, shortest):
        # a value the kernel cannot certify goes through Python's own
        # formatter, one call each: a wider doubt band or a worse exponent
        # estimate would slow the writers without changing a byte.  None
        # does with numpy 2.4; the bound allows for the last bits, which
        # differ between numpy's SIMD levels
        columns = cli.run_sweep(cli.get_preset(preset)).columns
        x = np.concatenate([columns[c] for c in cli.COLUMNS])
        _, _, certified = _gformat._decimal(x.copy(), shortest)
        assert (~certified & (x != 0)).sum() * 1000 <= x.size

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


class TestSweepRows:
    """The result of run_sweep read as a list of row dicts."""

    def test_length_indexing_and_order(self):
        config = quick_config(omega_count=5)
        rows = cli.run_sweep(config)
        grid = config.omega_grid()
        assert len(rows) == 5
        assert rows[0]["omega"] == grid[0]
        assert rows[-1]["omega"] == grid[-1] == rows[4]["omega"]
        assert [r["omega"] for r in rows] == grid
        assert [r["omega"] for r in rows[1:4]] == grid[1:4]
        assert [r["omega"] for r in rows[::-2]] == grid[::-2]
        assert rows[::2] == [rows[0], rows[2], rows[4]]
        assert rows[7:] == []
        with pytest.raises(IndexError):
            rows[5]

    def test_rows_are_fresh_float_dicts(self):
        rows = cli.run_sweep(quick_config(omega_count=3))
        for row in [*rows, rows[1], rows[-1], *rows[:2]]:
            assert list(row) == list(cli.COLUMNS)
            assert set(row) == set(cli.COLUMNS)
            assert all(type(v) is float for v in row.values())
        rows[0]["omega"] = -1.0
        assert rows[0]["omega"] == 0.5
        with pytest.raises(TypeError):
            rows[0] = {}

    @pytest.mark.parametrize("preset", ["fig3", "fig4"])
    def test_equals_its_json_rows(self, preset):
        config = cli.get_preset(preset)
        rows = cli.run_sweep(config)
        out = io.StringIO()
        cli.write_json(rows, config, out)
        back = json.loads(out.getvalue())
        assert rows == back and back == rows
        assert not rows != back and not back != rows
        assert rows == cli.run_sweep(config)
        back[300]["gamma_hat"] *= 1 + 1e-15
        assert rows != back and back != rows
        assert rows != back[:-1]
        assert (rows == 3) is False and (rows != 3) is True

    @pytest.mark.parametrize("columns", [("kappa",), ("eta",)])
    def test_sweep_without_an_omega_column(self, columns):
        config = quick_config(columns=columns)
        full = cli.run_sweep(config)
        rows = cli.Sweep({c: full.columns[c] for c in columns})
        assert len(rows) == config.omega_count and rows
        assert list(rows) == [{c: row[c] for c in columns} for row in full]
        assert rows[-1] == {c: full[-1][c] for c in columns}
        out = io.StringIO()
        cli.write_csv(rows, config, out)
        assert len(out.getvalue().splitlines()) == config.omega_count + 1


class TestArrayColumns:
    """run_sweep keeps each column as the float64 array it computes; lists
    of floats are accepted too and must write the same bytes."""

    def test_run_sweep_columns_are_float64_arrays(self):
        config = quick_config(omega_count=7)
        rows = cli.run_sweep(config)
        assert tuple(rows.columns) == cli.COLUMNS
        for values in rows.columns.values():
            assert type(values) is np.ndarray
            assert values.dtype == np.float64 and values.shape == (7,)

    @pytest.mark.parametrize("columns", [cli.COLUMNS, ("eta", "omega")])
    def test_lists_and_arrays_write_the_same_bytes(self, columns):
        # one full block of the writers, a block and one row, and two full
        # blocks and a part block
        per_block = _gformat._BLOCK // len(columns)
        for count in (per_block, per_block + 1, 2 * per_block + 11):
            self.assert_lists_and_arrays_write_the_same_bytes(columns, count)

    @staticmethod
    def assert_lists_and_arrays_write_the_same_bytes(columns, count):
        rng = np.random.default_rng(20261019)
        specials = [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324,
                    -1e-310, 2.2250738585072014e-308, 1.7976931348623157e308]
        random = rng.integers(0, 2 ** 64,
                              count * len(columns) - len(specials),
                              dtype=np.uint64).view(float)
        table = np.concatenate([specials, random]).reshape(-1, len(columns))
        config = quick_config(columns=columns)
        as_arrays = cli.Sweep({c: table[:, j] for j, c in enumerate(columns)})
        as_lists = cli.Sweep({c: table[:, j].tolist()
                              for j, c in enumerate(columns)})
        assert len(as_arrays) == len(as_lists) == count
        for write in (cli.write_csv, cli.write_json):
            texts = []
            for rows in (as_arrays, as_lists):
                out = io.StringIO()
                write(rows, config, out)
                texts.append(out.getvalue())
            assert texts[0] == texts[1]
        for row in [*as_arrays, as_arrays[0], *as_arrays[-2:]]:
            assert all(type(v) is float for v in row.values())

    @pytest.mark.parametrize("count", [1, 2, 601, 2401, 100001])
    @pytest.mark.parametrize("bounds", [(0.2, 2.0), (0.37, 5.9)])
    def test_grid_list_and_array_are_bit_exact(self, count, bounds):
        lo, hi = bounds
        config = quick_config(omega_min=lo, omega_max=hi, omega_count=count)
        # the grid's defining expression, one Python float at a time
        expected = [lo] if count == 1 else \
            [lo + ((hi - lo) * i) / (count - 1) for i in range(count)]
        grid = config.omega_grid()
        assert type(grid) is list
        assert list(map(float.hex, grid)) == list(map(float.hex, expected))
        array = config._omega_array()
        assert array.dtype == np.float64
        assert list(map(float.hex, array.tolist())) == \
            list(map(float.hex, expected))


class TestWriterMemory:
    """The writers hold one block at a time: their tracemalloc peak does
    not grow with the sweep's length.  Measured with numpy 2.4: 1.40 MB
    for CSV and 1.69 MB for JSON at 10,000 and at 40,000 rows, within
    4 kB of each other; 5.3 and 3.7 times one block's text laid out in
    four words a value."""

    # in bytes, and not relative to the laid-out text, which a change of
    # layout can shrink: the peaks of a kernel that laid out every value
    # in four words
    PEAKS = {"write_csv": 1_529_382, "write_json": 2_151_148}

    @pytest.mark.parametrize("write", [cli.write_csv, cli.write_json])
    def test_peak_does_not_grow_with_the_sweep(self, write):
        config = cli.SweepConfig()
        names = tuple(cli.COLUMNS) if write is cli.write_json else None
        # the kernel lays out each value in 8-byte words: the text before
        # it, and at most four for the value and the separator before it
        words = _gformat._frame(names, len(cli.COLUMNS))[0].shape[1] + 4
        laid = (_gformat._BLOCK // len(cli.COLUMNS) * len(cli.COLUMNS)
                * words * 8)
        peaks = []
        for count in (10000, 40000):
            rng = np.random.default_rng(count)
            rows = cli.Sweep({c: rng.standard_normal(count)
                              * 10.0 ** rng.integers(-8, 8, count)
                              for c in cli.COLUMNS})
            with open(os.devnull, "w", encoding="ascii") as stream:
                tracemalloc.start()
                try:
                    write(rows, config, stream)
                    peaks.append(tracemalloc.get_traced_memory()[1])
                finally:
                    tracemalloc.stop()
        assert peaks[1] - peaks[0] < 8 * 1024
        assert max(peaks) < 7 * laid
        assert max(peaks) <= self.PEAKS[write.__name__]


def ulps_around(values, reach):
    """Each value and its neighbours up to `reach` ulps either way."""
    bits = np.asarray(values, dtype=np.float64).view(np.int64)
    return (bits[:, None] + np.arange(-reach, reach + 1)).view(np.float64)


def mixed_blocks():
    """Whole blocks of the writers' 17 columns that take turns: values in
    fixed notation only, which the kernel lays out in three words each,
    and with one value that needs a fourth, for its exponent or for the
    uncertain route."""
    shape = (5, _gformat._BLOCK // 17, 17)
    rng = np.random.default_rng(8)
    table = (rng.choice([-1.0, 1.0], shape) * rng.uniform(1, 10, shape)
             * 10.0 ** rng.integers(-4, 7, shape))
    table[1, 7, 3] = 1.5e-7
    table[3, -1, 16] = math.nan
    return table.ravel()


class TestCsvFormat:
    """write_csv formats a block of rows at a time; its bytes must be those
    of per-value '%.17g' on every kind of double."""

    @staticmethod
    def assert_per_value_bytes(values, columns=cli.COLUMNS):
        table = np.asarray(values, dtype=np.float64).reshape(-1, len(columns))
        rows = cli.Sweep({c: table[:, j].tolist()
                          for j, c in enumerate(columns)})
        out = io.StringIO()
        cli.write_csv(rows, quick_config(columns=columns), out)
        expected = [",".join(columns)] + [
            ",".join("%.17g" % v for v in row)
            for row in table.tolist()]
        assert out.getvalue().split("\n") == expected + [""]

    def test_random_bit_patterns(self):
        # every sign and exponent field, subnormals and NaN payloads among
        # them; full blocks of the writers and a part block
        rows = 25 * (_gformat._BLOCK // 17) + 240
        rng = np.random.default_rng(20261018)
        fields = np.arange(2 * 2048, dtype=np.uint64) << np.uint64(52)
        mantissas = rng.integers(0, 2 ** 52, fields.size, dtype=np.uint64)
        random = rng.integers(0, 2 ** 64, 17 * rows - fields.size,
                              dtype=np.uint64)
        values = np.concatenate([fields | mantissas, random]).view(float)
        assert np.isnan(values).sum() > 100
        assert (np.abs(values) < np.finfo(float).tiny).sum() > 100
        self.assert_per_value_bytes(values)

    @pytest.mark.parametrize("extra", [0, 1])
    def test_one_full_block_and_one_row_after_it(self, extra):
        rows = _gformat._BLOCK // 17 + extra
        values = np.random.default_rng(5).integers(
            0, 2 ** 64, 17 * rows, dtype=np.uint64).view(float)
        self.assert_per_value_bytes(values)

    def test_powers_of_ten(self):
        powers = [float(f"1e{k}") for k in range(-323, 309)]
        values = ulps_around(powers, 2).ravel()
        self.assert_per_value_bytes(np.concatenate([values, -values,
                                                    [0.0] * 10]),
                                    cli.COLUMNS[:5])

    @pytest.mark.parametrize("switch", [1e-5, 1e-4, 1e16, 1e17])
    def test_fixed_and_exponent_switch(self, switch):
        # the 17-digit rounding of the values below a switch carries to it
        values = ulps_around([switch], 40).ravel()
        self.assert_per_value_bytes(np.concatenate([values, -values]),
                                    ("omega",))

    def test_exact_ties_round_to_even(self):
        # m / 2**j with m odd has j decimals: from 10**(17 - j) on, 18
        # significant digits, so its 17-digit rounding is an exact tie
        rng = np.random.default_rng(7)
        ties = [100000000000001 / 32, 100000000000003 / 32]
        for j in range(3, 25):
            low = 2 ** j * 10 ** 17 // 10 ** j
            m = rng.integers(low // 2, 5 * low, 40) * 2 + 1
            ties += (m / 2.0 ** j).tolist()
        exact = [Decimal(t) for t in ties]
        assert sum(len(d.as_tuple().digits) == 18 for d in exact) > 800
        texts = ["%.17g" % t for t in ties]
        assert texts[:2] == ["3125000000000.0312", "3125000000000.0938"]
        down = [Decimal(text) < d for text, d in zip(texts, exact)]
        assert 300 < sum(down) < len(down) - 300
        self.assert_per_value_bytes(ulps_around(ties, 1).ravel(), ("eta",))

    def test_exact_ties_are_certified(self):
        # n + m / 2**(17 - E) with m odd and 10**E <= n < 10**(E + 1) has
        # 18 significant digits, the last a 5; below 2**51 it is a double.
        # From E = 12 to 15, 10**(16 - E) is a double, so the kernel's
        # product is exact and the tie certain
        rng = np.random.default_rng(12)
        rows = _gformat._BLOCK // 17
        e = rng.integers(12, 16, (rows, 17))
        n = rng.integers(10 ** e, np.where(e == 15, 2, 10) * 10 ** e)
        scale = 2 ** (17 - e)
        m = 2 * rng.integers(0, scale // 2) + 1
        ties = (n + m / scale) * rng.choice([-1.0, 1.0], e.shape)
        ties[0, :2] = 1e14 + 0.125, 1e14 + 0.375
        assert ["%.17g" % t for t in ties[0, :2]] \
            == ["100000000000000.12", "100000000000000.38"]
        assert all(Decimal(t).as_tuple().digits[-1] == 5
                   and len(Decimal(t).as_tuple().digits) == 18
                   for t in ties.ravel().tolist())
        _, _, certified = _gformat._decimal(ties.ravel(), False)
        assert certified.all()
        self.assert_per_value_bytes(ties)

    def test_zero_columns(self):
        rng = np.random.default_rng(3)
        table = rng.standard_normal((300, 17))
        table[:, 3] = 0.0
        table[:, 16] = -0.0
        self.assert_per_value_bytes(table)

    @pytest.mark.parametrize("shape", [(1, 17), (5000, 1), (1, 1)])
    def test_one_row_or_one_column(self, shape):
        rng = np.random.default_rng(4)
        values = rng.standard_normal(shape) * 10.0 ** rng.integers(
            -30, 30, shape)
        self.assert_per_value_bytes(values, cli.COLUMNS[:shape[1]])

    def test_blocks_with_and_without_a_fourth_word(self):
        self.assert_per_value_bytes(mixed_blocks())

    def test_no_rows(self):
        self.assert_per_value_bytes(np.empty(0))

    def test_short_decimals(self):
        # the 17 digits of a value rounded to a few decimals end in one,
        # two or three all-zero groups of four
        rng = np.random.default_rng(13)
        size = 17 * 1000
        x = rng.uniform(-1, 1, size) * 10.0 ** rng.integers(-6, 17, size)
        values = [round(v, k) for v, k in zip(x.tolist(),
                                              rng.integers(0, 16, size))]
        digits = [("%.16e" % v)[:18].replace(".", "") for v in values if v]
        groups = Counter((17 - len(d.rstrip("0"))) // 4 for d in digits)
        assert min(groups[1], groups[2], groups[3]) > 400
        self.assert_per_value_bytes(values)


def repr_route(value):
    """Why the JSON kernel hands a value to float.__repr__, from exact
    arithmetic: non-finite, out of range, next to a power of ten (its
    exponent is uncertain), an end of its rounding interval or the
    midpoint between two shortest candidates near an integer of the
    17-digit scale, or unexplained."""
    if not math.isfinite(value):
        return "non-finite"
    a = abs(value)
    if not 1e-270 <= a < 1e300:
        return "range"
    scale = Fraction(10) ** (16 - Decimal(a).adjusted())
    scaled = Fraction(a) * scale
    near = Fraction(1, 2 ** 19)
    if abs(scaled - 10 ** 16) < near:
        return "decade"
    ends = [(Fraction(a) + Fraction(math.nextafter(a, b))) / 2 * scale
            for b in (0.0, math.inf)]
    if any(abs(t - round(t)) < near for t in ends):
        return "end"
    lower, upper = math.ceil(ends[0]), math.floor(ends[1])
    step = 10 ** (len(str(upper - lower + 1)) - 1)
    if (upper // (10 * step) * (10 * step) < lower
            and abs(scaled % step - Fraction(step, 2)) < near):
        return "midpoint"
    return "unexplained"


class TestJsonFormat:
    """write_json formats a block of rows at a time; its bytes must be those
    of json.dump on every kind of double, and each route that hands a value
    to float.__repr__ must be taken by some value."""

    @staticmethod
    def assert_json_dump_bytes(values, columns=cli.COLUMNS):
        """Compare the bytes; return the kernel's routes to repr."""
        table = np.asarray(values, dtype=np.float64).reshape(-1, len(columns))
        rows = cli.Sweep({c: table[:, j].tolist()
                          for j, c in enumerate(columns)})
        out = io.StringIO()
        cli.write_json(rows, quick_config(columns=columns), out)
        # the bytes of json.dump, in one string
        expected = json.dumps([dict(zip(columns, row))
                               for row in table.tolist()], indent=1) + "\n"
        assert out.getvalue().split("\n") == expected.split("\n")
        x = table.ravel()
        _, _, certified = _gformat._decimal(x.copy(), True)
        routes = Counter(map(repr_route, x[~certified & (x != 0)].tolist()))
        assert not routes["unexplained"]
        return routes

    def test_random_bit_patterns(self):
        # every sign and exponent field, subnormals and NaN payloads among
        # them; full blocks of the writers and a part block
        rows = 2 * (_gformat._BLOCK // 17) + 240
        rng = np.random.default_rng(20261019)
        fields = np.arange(2 * 2048, dtype=np.uint64) << np.uint64(52)
        mantissas = rng.integers(0, 2 ** 52, fields.size, dtype=np.uint64)
        subnormals = rng.integers(0, 2 ** 52, 100, dtype=np.uint64)
        random = rng.integers(0, 2 ** 64, 17 * rows - fields.size - 102,
                              dtype=np.uint64)
        values = np.concatenate([(fields | mantissas).view(float),
                                 [math.inf, -math.inf],
                                 subnormals.view(float) * ([1, -1] * 50),
                                 random.view(float)])
        assert np.isnan(values).sum() > 10
        assert (np.abs(values) < np.finfo(float).tiny).sum() > 100
        routes = self.assert_json_dump_bytes(values)
        assert routes["non-finite"] > 10 and routes["range"] > 500

    @pytest.mark.parametrize("extra", [0, 1])
    def test_one_full_block_and_one_row_after_it(self, extra):
        rows = _gformat._BLOCK // 17 + extra
        values = np.random.default_rng(6).integers(
            0, 2 ** 64, 17 * rows, dtype=np.uint64).view(float)
        self.assert_json_dump_bytes(values)

    def test_powers_of_ten(self):
        powers = [float(f"1e{k}") for k in range(-323, 309)]
        values = ulps_around(powers, 2).ravel()
        routes = self.assert_json_dump_bytes(
            np.concatenate([values, -values, [0.0] * 10]), cli.COLUMNS[:5])
        assert routes["decade"]          # 1e20 itself

    def test_powers_of_two(self):
        # below a power of two the gap to the next double is half as large
        powers = np.ldexp(1.0, np.arange(-1074, 1024))
        self.assert_json_dump_bytes(ulps_around(powers, 2), cli.COLUMNS[:5])

    @pytest.mark.parametrize("switch", [1e-5, 1e-4, 1e15, 1e16, 1e17])
    def test_fixed_and_exponent_switch(self, switch):
        values = ulps_around([switch], 40).ravel()
        self.assert_json_dump_bytes(np.concatenate([values, -values]),
                                    ("omega",))

    def test_integers_around_2_53(self):
        # from 2**53 on, an end of the rounding interval is an integer
        values = np.arange(2 ** 53 - 1000, 2 ** 53 + 1000).astype(float)
        routes = self.assert_json_dump_bytes(values, ("kappa",))
        assert routes["end"] > 1000

    def test_blocks_with_and_without_a_fourth_word(self):
        self.assert_json_dump_bytes(mixed_blocks())

    def test_no_rows(self):
        self.assert_json_dump_bytes(np.empty(0))

    def test_short_decimals(self):
        rng = np.random.default_rng(11)
        size = 17 * 1000
        x = rng.uniform(-1, 1, size) * 10.0 ** rng.integers(-6, 17, size)
        values = [round(v, k) for v, k in zip(x.tolist(),
                                              rng.integers(0, 16, size))]
        self.assert_json_dump_bytes(values)

    def test_exact_ties_at_the_shortest_length(self):
        # m / 2**k, m odd, is the 17-digit integer m * 5**k, an odd multiple
        # of 5, scaled by 10**-k: where the shortest candidates are
        # multiples of 10, two lie equally near; repr takes the even digit
        rng = np.random.default_rng(12)
        ties = []
        for k in range(1, 24):
            low, high = 5 * 10 ** 16 // 5 ** k, 10 ** 17 // 5 ** k
            if high < 2 ** 53:
                ties += [(int(m) | 1) / 2 ** k
                         for m in rng.integers(low, high, 20)]
        assert repr(818480843660727.25) == "818480843660727.2"
        routes = self.assert_json_dump_bytes(
            ulps_around(ties + [818480843660727.25], 1).ravel(), ("eta",))
        assert routes["midpoint"] > 100

    def test_zero_columns(self):
        rng = np.random.default_rng(3)
        table = rng.standard_normal((300, 17))
        table[:, 3] = 0.0
        table[:, 16] = -0.0
        self.assert_json_dump_bytes(table)

    @pytest.mark.parametrize("shape", [(1, 17), (5000, 1), (1, 1)])
    def test_one_row_or_one_column(self, shape):
        rng = np.random.default_rng(4)
        values = rng.standard_normal(shape) * 10.0 ** rng.integers(
            -30, 30, shape)
        self.assert_json_dump_bytes(values, cli.COLUMNS[:shape[1]])

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

    def test_bad_boolean_is_config_error(self, tmp_path, capsys):
        path = tmp_path / "bad.cfg"
        path.write_text("[output]\nverify = maybe\n")
        with pytest.raises(ConfigError, match="not a boolean: 'maybe'"):
            cli.load_config_file(str(path))
        assert cli.main(["sweep", "--config", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.err == ("configuration error: [output] verify = "
                                "'maybe': not a boolean: 'maybe'\n")
        assert captured.out == ""

    def test_empty_columns_are_config_error(self, tmp_path, capsys):
        with pytest.raises(ConfigError, match="no output columns"):
            quick_config(columns=())
        path = tmp_path / "empty.cfg"
        path.write_text("[output]\ncolumns =\n")
        with pytest.raises(ConfigError, match="no output columns"):
            cli.load_config_file(str(path))
        for args in (["--preset", "fig3", "--columns", ","],
                     ["--config", str(path)]):
            assert cli.main(["sweep", *args]) == 1
            captured = capsys.readouterr()
            assert "configuration error" in captured.err
            assert captured.out == ""

    def test_bad_medium_value_is_config_error(self, tmp_path, capsys):
        path = tmp_path / "bad.cfg"
        path.write_text("[medium]\ngamma = -1\n")
        with pytest.raises(ConfigError, match="gamma"):
            cli.load_config_file(str(path))
        assert cli.main(["sweep", "--config", str(path)]) == 1
        assert "configuration error" in capsys.readouterr().err

    @pytest.mark.parametrize("data", [
        b"sphere_radius = 61\n",
        b"[geometry]\nsphere_radius = 3\nsphere_radius = 4\n",
        b"[geometry]\n  stray\nsphere_radius = 3\n",
        b"[output]\ncolumns = om%ega\n",
        b"[geometry]\nsphere_radius = 3\xff\n",
    ], ids=["no-section", "duplicate-key", "stray-line", "interpolation",
            "not-text"])
    def test_unparsable_file_is_config_error(self, tmp_path, capsys, data):
        path = tmp_path / "bad.cfg"
        path.write_bytes(data)
        with pytest.raises(ConfigError):
            cli.load_config_file(str(path))
        for command in ("sweep", "verify"):
            assert cli.main([command, "--config", str(path)]) == 1
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith("configuration error: ")
            assert captured.err.count("\n") == 1


# the per-sample loops that the batched checks replace: each draws what its
# check draws, in the same order, and returns the samples as argument tuples
# of one route (the spied name below), skipped draws left out

def _specfun_loop(rng):
    zs = [complex(rng.uniform(-10, 10), rng.uniform(-5, 5))
          for _ in range(100)]
    return [(z,) for z in zs if 0.05 < abs(z) < 30]


def _sqrt_loop(rng):
    return [(eps,) for eps in passive_eps_samples(rng, 200, 0.0)]


def _solver_loop(rng):
    out = []
    for _ in range(60):
        e1, e2, e3 = (complex(rng.uniform(0.5, 8), rng.uniform(0, 4))
                      for _ in range(3))
        r1 = rng.uniform(0.05, 1.5)
        r2 = r1 + rng.uniform(0.2, 2.0)
        out.append((e1, e2, e3, r1, r2, rng.uniform(0.3, 2.5)))
    return out


def _lossless_loop(rng):
    return [(complex(rng.uniform(1.0, 9.0), 0.0), 1.0, rng.uniform(1, 3),
             0.05, 0.05, 1.0) for _ in range(20)]


def _cutoff_loop(rng):
    return [(eps,) for eps in passive_eps_samples(rng, 500)]


def _cavity_loop(rng):
    eps = passive_eps_samples(rng, 500)
    out = []
    for e in eps:
        radius, k0 = rng.uniform(0.5, 4.0), rng.uniform(0.5, 2.0)
        out.append((e, 1.0, radius, 0.1 / k0, 0.1 / k0, k0))
    return out


PER_SAMPLE_LOOPS = {
    verify_mod.check_specfun_identities: (_specfun_loop, "sph_j1"),
    verify_mod.check_sqrt_branch: (_sqrt_loop, "sqrt_eps"),
    verify_mod.check_solver_vs_closed_forms: (_solver_loop,
                                              "coeffs_three_layer"),
    verify_mod.check_lossless_collapse: (_lossless_loop, "rate_report"),
    verify_mod.check_cutoff_free_identity: (_cutoff_loop,
                                            "identity_rep_decomposition"),
    verify_mod.check_cavity_rate_forms: (_cavity_loop, "rate_report"),
}


class TestVerifyBattery:
    def test_default_battery_passes(self):
        report = verify_mod.run_battery(None)
        assert report.all_passed, "\n".join(report.lines())

    def test_default_battery_is_fig3_at_resonance(self):
        default = verify_mod.run_battery(None)
        fig3 = verify_mod.run_battery(cli.get_preset("fig3"))
        assert default == fig3
        assert list(default.lines()) == list(fig3.lines())

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
        oracle_checks = {"oracle_matches_analytic_power",
                         "energy_balance_layers", "quadrature_convergence"}
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

    @pytest.mark.parametrize("error", [DomainError, OverflowError,
                                       ZeroDivisionError, IllConditioned])
    def test_any_numeric_failure_is_a_verdict(self, monkeypatch, error):
        def boom(*args, **kwargs):
            raise error("synthetic")

        monkeypatch.setattr(oracle, "energy_balance", boom)
        report = verify_mod.run_battery(None)
        failed = [c for c in report.checks if not c.passed]
        assert len(report.checks) == 16
        assert [c.name for c in failed] == ["energy_balance_layers"]
        assert failed[0].detail == "numeric failure: synthetic"

    @pytest.mark.parametrize("module, name, failing", [
        (rates, "p_eff_expansion", ("expansion_order_p_eff",
                                    "expansion_order_gamma0_loc",
                                    "expansion_order_central_c1")),
        # the closed forms read every wave of the Wronskian too
        (specfun, "riccati_h2", ("hankel_wronskian", "hankel_superposition",
                                 "solver_matches_closed_forms")),
    ])
    def test_numeric_failure_of_a_list_check_keeps_every_name(
            self, monkeypatch, module, name, failing):
        def boom(*args, **kwargs):
            raise OverflowError("synthetic")

        monkeypatch.setattr(module, name, boom)
        report = verify_mod.run_battery(None)
        assert len(report.checks) == 16
        failed = tuple(c.name for c in report.checks if not c.passed)
        assert failed == failing
        assert all(c.detail == "numeric failure: synthetic"
                   for c in report.checks if not c.passed)

    def test_numeric_failure_keeps_the_verdict_names(self, monkeypatch):
        # each check in turn fails numerically; the report keeps the 16
        # names of a passing run, in the same order
        names = [c.name for c in verify_mod.run_battery(None).checks]
        checks = [name for name in vars(verify_mod)
                  if name.startswith("check_")]
        assert len(names) == 16 and len(checks) == 13

        def boom(*args, **kwargs):
            raise OverflowError("synthetic")

        for check in checks:
            with monkeypatch.context() as patch:
                patch.setattr(verify_mod, check, boom)
                report = verify_mod.run_battery(None)
            assert [c.name for c in report.checks] == names, check
            assert any(c.detail == "numeric failure: synthetic"
                       for c in report.checks), check

    def test_overflow_inside_a_check_is_a_verdict(self, tmp_path, capsys):
        # at R = 1400 the sphere's field passes |Im k r| = 700 at resonance
        path = tmp_path / "large.cfg"
        path.write_text("[geometry]\nsphere_radius = 1400\n")
        code = cli.main(["verify", "--preset", "fig3", "--config", str(path)])
        out = capsys.readouterr().out.splitlines()
        assert code == 2
        assert len(out) == 17 and out[-1].startswith("16 checks, ")
        assert any(line.startswith("FAIL  energy_balance_layers")
                   and "numeric failure: |Im z| = " in line
                   and "overflow guard" in line for line in out), out

    def test_underflowing_outer_amplitude_named_in_the_detail(self):
        # fig3 at R = 1400: the bare sphere's c_outer is an exact 0
        config = replace(cli.get_preset("fig3"), sphere_radius=1400.0)
        report = verify_mod.run_battery(config)
        [check] = [c for c in report.checks
                   if c.name == "external_field_scaling"]
        assert not check.passed
        assert check.detail == ("numeric failure: the bare sphere's c_outer "
                                "underflows to 0 at |Im k R| = 760.5")

    @pytest.mark.parametrize("radius", [61.0, 100.0, 600.0])
    def test_energy_balance_for_spheres_beyond_60_over_k0(self, radius):
        # 1.05 R, as a host shell's inner radius, passes its outer radius
        # R + 3/k0 for R > 60/k0
        config = replace(cli.get_preset("fig3"), sphere_radius=radius)
        omega = config.medium.omega0
        result = verify_mod.check_energy_balance(
            eval_lorentz(config.medium, omega).eps, config.eps_ext, radius,
            config.onsager_radius(omega), omega)
        assert result.passed, result.line()

    @pytest.mark.parametrize("preset, seed", [("fig4", 1943366698),
                                              ("fig3", 1799009648)])
    def test_battery_passes_on_rounding_limited_seeds(self, preset, seed):
        # each draws a Hankel sample at |z| < 0.015, where the identities
        # cancel terms 1/|z|**3 larger than their result
        report = verify_mod.run_battery(cli.get_preset(preset), seed)
        assert report.all_passed, "\n".join(report.lines())

    def test_hankel_identities_hold_on_the_sampling_bound(self):
        class RingDraws:
            """Stands in for the generator: (re, im) pairs on |z| = 0.05."""
            def __init__(self, points):
                self.pairs = np.column_stack([points.real, points.imag])

            def uniform(self, low, high, size):
                assert size == self.pairs.shape
                return self.pairs

        ring = 0.05 * (1 + 1e-9) * np.exp(2j * np.pi * np.arange(400) / 400)
        assert np.all(abs(ring) > 0.05)
        for points in np.split(ring, 4):  # the check draws 100 samples
            for result in verify_mod.check_specfun_identities(
                    RingDraws(points)):
                assert result.measured <= 1e-11, result.line()

    @pytest.mark.parametrize("check", PER_SAMPLE_LOOPS,
                             ids=lambda check: check.__name__)
    @pytest.mark.parametrize("seed", [0, 1, 5, 20260810])
    def test_batched_checks_take_the_per_sample_draws(self, check, seed):
        batched, looped = (np.random.default_rng(seed) for _ in range(2))
        results = check(batched)
        assert all(r.passed for r in np.atleast_1d(results))
        PER_SAMPLE_LOOPS[check][0](looped)
        assert batched.bit_generator.state == looped.bit_generator.state
        assert batched.random() == looped.random()

    @pytest.mark.parametrize("check", PER_SAMPLE_LOOPS,
                             ids=lambda check: check.__name__)
    def test_batched_checks_see_the_per_sample_values(self, check,
                                                      monkeypatch):
        loop, name = PER_SAMPLE_LOOPS[check]
        module = next(m for m in (verify_mod, specfun, ml, rates)
                      if name in vars(m))
        true_fn, seen = getattr(module, name), []

        def spy(*args):
            seen.append(args)
            return true_fn(*args)

        monkeypatch.setattr(module, name, spy)
        check(np.random.default_rng(7))
        expected = np.array(loop(np.random.default_rng(7)), dtype=complex)
        np.testing.assert_array_equal(
            np.broadcast_arrays(*seen[0]), expected.T)

    @pytest.mark.parametrize("check", [verify_mod.check_cavity_rate_forms,
                                       verify_mod.check_lossless_collapse],
                             ids=lambda check: check.__name__)
    def test_rate_form_checks_solve_once(self, check, monkeypatch):
        # every quantity of a sample block comes from one rate_report
        true_fn, solves = ml._amplitudes, []

        def counted(radii, eps, roots, k0, *route):
            solves.append(k0)
            return true_fn(radii, eps, roots, k0, *route)

        monkeypatch.setattr(ml, "_amplitudes", counted)
        assert check(np.random.default_rng(7)).passed
        assert len(solves) == 1

    @pytest.mark.parametrize("module, name, nan_fn, names", [
        (oracle, "absorbed_power", lambda *args: math.nan,
         {"oracle_matches_analytic_power", "energy_balance_layers"}),
        (ml, "coeffs_general_n", lambda stack, k0: ml.WaveCoefficients(
            c1=k0 * math.nan, c_plus=(k0 + 0j,) * len(stack.radii),
            c_minus=(0j,) * len(stack.radii)),
         {"solver_matches_closed_forms"}),
        (specfun, "riccati_h2", lambda z: z * math.nan,
         {"hankel_wronskian", "solver_matches_closed_forms"}),
        (specfun, "sph_j1", lambda z: z * math.nan,
         {"hankel_superposition"}),
        (verify_mod, "sqrt_eps", lambda eps: eps * math.nan,
         {"sqrt_branch_reconstruction"}),
        (verify_mod, "eta_kappa", lambda eps: (eps.real * math.nan,) * 2,
         {"lossless_collapse"}),
        (rates, "_real_cavity",
         lambda eps, *route: (2 * eps + 1, abs(2 * eps + 1),
                              abs(eps) * math.nan),
         {"external_field_scaling", "lossless_collapse",
          "cavity_rate_forms_agree"}),
    ])
    def test_nan_measure_fails_its_check(self, monkeypatch, module, name,
                                         nan_fn, names):
        monkeypatch.setattr(module, name, nan_fn)
        with np.errstate(invalid="ignore"):  # the NaN is put in on purpose
            report = verify_mod.run_battery(None)
        checks = {c.name: c for c in report.checks}
        for check in names:
            assert not checks[check].passed, checks[check].line()
            assert math.isnan(checks[check].measured)

    @pytest.mark.parametrize("min_den", [0.0, 1.0])
    @pytest.mark.parametrize("seed", [0, 5, 20260810])
    def test_block_draws_match_the_pair_loop(self, seed, min_den):
        blocks, pairs = (np.random.default_rng(seed) for _ in range(2))
        expected = []
        while len(expected) < 500:
            eps = complex(pairs.uniform(-3.0, 10.0), pairs.uniform(0.0, 5.0))
            if 0.05 <= abs(eps) <= 10.0 and abs(2 * eps + 1) >= min_den:
                expected.append(eps)
        assert verify_mod._sample_passive_eps(blocks, 500, min_den) == expected
        assert blocks.bit_generator.state == pairs.bit_generator.state

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

    def test_all_columns_write_the_default_bytes(self, tmp_path):
        default, every = tmp_path / "default.cfg", tmp_path / "all.cfg"
        default.write_text("[sweep]\nomega_count = 9\n")
        every.write_text("[sweep]\nomega_count = 9\n[output]\ncolumns = all\n")
        texts = []
        for args in (["--config", str(default)], ["--config", str(every)],
                     ["--config", str(default), "--columns", "all"],
                     ["--config", str(every), "--columns", " ALL "]):
            out = tmp_path / "rows.csv"
            assert cli.main(["sweep", *args, "--out", str(out)]) == 0
            texts.append(out.read_bytes())
        assert texts[1:] == texts[:1] * 3
        assert len(texts[0].splitlines()) == 10

    def test_bad_preset_is_config_error(self, capsys):
        assert cli.main(["sweep", "--preset", "fig9"]) == 1
        assert "configuration error" in capsys.readouterr().err

    def test_bad_config_file_is_config_error(self):
        assert cli.main(["sweep", "--config", "/nope.cfg"]) == 1

    def test_engine_failure_is_numeric_failure(self, monkeypatch, capsys):
        # a failed amplitude solve stops the sweep with exit 3 and no row
        def boom(*args):
            raise IllConditioned("synthetic")

        monkeypatch.setattr(ml, "_amplitudes", boom)
        assert cli.main(["sweep", "--preset", "fig3"]) == 3
        captured = capsys.readouterr()
        assert "numeric failure" in captured.err
        assert captured.out == ""

    def test_large_sphere_sweep_succeeds(self, tmp_path, capsys):
        # near resonance |Im k R| passes 700 at R = 1400, where the
        # unscaled waves overflow double precision
        path = tmp_path / "big.cfg"
        path.write_text("[geometry]\nsphere_radius = 1400\n")
        assert cli.main(["sweep", "--config", str(path)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 602
        assert all(math.isfinite(float(v)) for line in lines[1:]
                   for v in line.split(","))

    def test_config_warning_only_for_a_valid_config(self, capsys):
        with warnings.catch_warnings(record=True) as record:
            warnings.simplefilter("always")
            assert cli.main(["sweep", "--preset", "fig3",
                             "--columns", ","]) == 1
            assert record == []
            assert capsys.readouterr().err == \
                "configuration error: no output columns selected\n"
            assert cli.main(["sweep", "--preset", "fig3",
                             "--columns", "omega"]) == 0
        assert [w.category for w in record] == [ExpansionRangeWarning]
        assert record[0].filename == cli.__file__

    @pytest.mark.parametrize("preset", ["fig2", "fig3", "fig4"])
    def test_verify_does_not_warn(self, preset, capsys):
        # the battery evaluates no expansion at the preset's r_c
        with warnings.catch_warnings(record=True) as record:
            warnings.simplefilter("always")
            assert cli.main(["verify", "--preset", preset]) == 0
        assert record == []
        assert capsys.readouterr().out.count("PASS") == 16

    @pytest.mark.parametrize("target", ["missing-dir", "directory"])
    def test_unwritable_output_is_output_error(self, tmp_path, capsys,
                                               target):
        out = tmp_path / "missing" / "x.csv" if target == "missing-dir" \
            else tmp_path
        assert cli.main(["sweep", "--preset", "fig4", "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("output error: ")
        assert captured.err.count("\n") == 1
        assert str(out) in captured.err

    @pytest.mark.parametrize("target", ["missing-dir", "directory"])
    def test_unwritable_output_fails_before_the_sweep(
            self, tmp_path, capsys, monkeypatch, target):
        calls = []
        monkeypatch.setattr(cli, "run_sweep", calls.append)
        out = tmp_path / "missing" / "x.csv" if target == "missing-dir" \
            else tmp_path
        with warnings.catch_warnings(record=True) as record:
            warnings.simplefilter("always")
            assert cli.main(["sweep", "--preset", "fig3",
                             "--out", str(out)]) == 1
        assert calls == [] and record == []
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("output error: ")
        assert captured.err.count("\n") == 1
        assert str(out) in captured.err

    def test_relative_output_in_the_working_directory(self, tmp_path,
                                                      monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert cli.main(["sweep", "--preset", "fig4", "--out", "x.csv"]) == 0
        assert (tmp_path / "x.csv").read_text().startswith("omega,")

    def test_numeric_failure_leaves_output_as_it_was(self, tmp_path,
                                                     monkeypatch):
        def boom(*args):
            raise IllConditioned("synthetic")

        monkeypatch.setattr(ml, "_amplitudes", boom)
        kept = tmp_path / "kept.csv"
        kept.write_bytes(b"earlier,rows\n1,2\n")
        for out in (kept, tmp_path / "new.csv", tmp_path / "new.json"):
            assert cli.main(["sweep", "--preset", "fig3",
                             "--out", str(out)]) == 3
        assert sorted(p.name for p in tmp_path.iterdir()) == ["kept.csv"]
        assert kept.read_bytes() == b"earlier,rows\n1,2\n"

    def test_closed_pipe_is_output_error(self):
        # the reader stops after the header; the 601 rows (about 200 kB)
        # cannot all fit in the pipe, so the writer meets the closed end
        src = str(Path(cli.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.Popen(
            [sys.executable, "-m", "cavrate.cli", "sweep", "--preset",
             "fig4"], stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            env=env)
        try:
            assert proc.stdout.readline().startswith(b"omega,")
            proc.stdout.close()
            _, err = proc.communicate(timeout=60)
        finally:
            proc.kill()
        assert proc.returncode == 1
        assert err.startswith(b"output error: ")
        assert err.count(b"\n") == 1

    def test_verify_failure_exit_code(self, monkeypatch):
        failing = verify_mod.VerificationReport(checks=(
            verify_mod.CheckResult("broken", False, 2.0, 1.0),))
        monkeypatch.setattr(verify_mod, "run_battery",
                            lambda config, seed=0: failing)
        assert cli.main(["verify", "--preset", "fig4"]) == 2

    def test_both_commands_default_to_the_battery_seed(self, monkeypatch,
                                                       tmp_path):
        seeds = []

        def record(config, seed=None):
            seeds.append(seed)
            return verify_mod.VerificationReport(checks=())

        monkeypatch.setattr(verify_mod, "run_battery", record)
        assert cli.main(["verify", "--preset", "fig4"]) == 0
        assert cli.main(["sweep", "--preset", "fig4", "--verify",
                         "--out", str(tmp_path / "rows.csv")]) == 0
        assert cli.main(["verify", "--preset", "fig4", "--seed", "3"]) == 0
        assert seeds == [verify_mod.DEFAULT_SEED] * 2 + [3]

    def test_numeric_failure_exit_code(self, monkeypatch):
        def boom(config, seed=0):
            raise QuadratureFailure("synthetic")

        monkeypatch.setattr(verify_mod, "run_battery", boom)
        assert cli.main(["verify", "--preset", "fig4"]) == 3


# the validated configuration space, as config file sections: absorbing
# hosts, spheres up to 2000 c/omega0, both cavity references and both r_m
# modes (rm_value only with 'explicit'), grids of up to 20 frequencies
rm_settings = st.one_of(
    st.fixed_dictionaries({"rm_mode": st.just("equal_to_rc")}),
    st.fixed_dictionaries({"rm_mode": st.just("explicit"),
                           "rm_value": st.floats(1e-3, 2.0)}))
valid_configs = st.fixed_dictionaries({
    "medium": st.fixed_dictionaries({
        "eps_b": st.floats(1.0, 20.0), "Omega": st.floats(0.0, 3.0),
        "gamma": st.floats(1e-4, 2.0)}),
    "geometry": st.builds(
        dict.__or__, st.fixed_dictionaries({
            "eps_ext": st.builds(complex, st.floats(1.0, 4.0),
                                 st.floats(0.0, 2.0)),
            "sphere_radius": st.floats(0.5, 2000.0),
            "onsager_fraction": st.floats(1e-3, 0.159),
            "lambda_reference": st.sampled_from(["transition",
                                                 "resonance"])}),
        rm_settings),
    "sweep": st.fixed_dictionaries({
        "omega_min": st.floats(0.05, 3.0), "omega_max": st.floats(3.01, 13.0),
        "omega_count": st.integers(1, 20)}),
})


@settings(max_examples=60, deadline=None)
@given(valid_configs)
def test_every_valid_configuration_ends_in_a_verdict(tmp_path_factory,
                                                     sections):
    folder = tmp_path_factory.mktemp("fuzz")
    path = folder / "drawn.cfg"
    # str() of a float or complex is its repr, which the reader parses back
    path.write_text("".join(
        f"[{name}]\n" + "".join(f"{key} = {value}\n"
                                for key, value in items.items())
        for name, items in sections.items()))
    for args in (["sweep", "--config", str(path),
                  "--out", str(folder / "rows.csv")],
                 ["verify", "--config", str(path)]):
        out, err = io.StringIO(), io.StringIO()
        # an exception that escapes main fails the test; a RuntimeWarning
        # stays a warning, as for the command, not an error as in this suite
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
                warnings.catch_warnings():
            warnings.filterwarnings("default", category=RuntimeWarning)
            code = cli.main(args)
        lines = out.getvalue().splitlines()
        assert code in (0, 1, 2, 3), (args[0], code)
        if code in (1, 3):  # one message on stderr
            assert err.getvalue().count("\n") == 1, err.getvalue()
            assert err.getvalue().startswith(
                ("configuration error: ", "output error: ",
                 "numeric failure: "))
        elif args[0] == "verify":  # 16 verdicts and the summary
            assert len(lines) == 17 and lines[-1].startswith("16 checks, ")
            assert ("all passed" in lines[-1]) == (code == 0)
