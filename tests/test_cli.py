import contextlib
import csv
import io
import math
import re
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from quadrature_oracle import coupling_numeric_oracle, coupling_oracle_extrapolated, free_prop_S_numeric

from turbulink import cli, lgmodes, temporal
from turbulink.cli import EXIT_CONFIG, EXIT_NUMERIC, EXIT_OK, main, run_subcommand, sweep
from turbulink.config import (
    _KEYS,
    _SECTION_KEYS,
    RANGES,
    ConfigError,
    RunConfig,
    apply_overrides,
    config_from_tables,
    parse_config,
    parse_table_text,
    validate_config,
)
from turbulink.ipe import SolverError
from turbulink.lgmodes import LGIndex

PAPER_CONFIG = """
# paper-default channel
[link]
distance_m = 30000.0
wavelength_m = 3.95e-06
waist_m = 0.1457

[turbulence]
cn2 = 1e-15

[source]
sigma_a_trad = 10.0
sigma_b_trad = 80.0
"""


def format_value(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, str):
        return '"' + value + '"'
    if isinstance(value, (list, tuple)):
        return "[" + ", ".join(format_value(v) for v in value) + "]"
    if isinstance(value, int):
        return str(value)
    return repr(float(value))


def serialize_config(config: RunConfig) -> str:
    """Render a RunConfig in the documented file grammar, every key written."""
    lines = []
    for section, keys in _SECTION_KEYS.items():
        lines.append(f"[{section}]")
        for key in keys:
            lines.append(f"{key} = {format_value(getattr(config, key))}")
        lines.append("")
    if config.sweep_axes:
        lines.append("[sweep]")
        lines.append(f"axes = {format_value(list(config.sweep_axes))}")
        for axis, points in zip(config.sweep_axes, config.sweep_values):
            lines.append(f"{axis} = {format_value(list(points))}")
        lines.append("")
    return "\n".join(lines)


class TestConfigParsing:
    def test_minimal_defaults(self, tmp_path):
        path = tmp_path / "minimal.cfg"
        path.write_text("[link]\ndistance_m = 30000.0\n")
        config = parse_config(str(path))
        assert config.distance_m == 30000.0
        assert config.waist_m == 0.1457
        assert config.cutoff == 4
        assert config.steps == 256

    def test_range_violation_names_key(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("[link]\nwavelength_m = -1\n")
        with pytest.raises(ConfigError, match="wavelength_m"):
            parse_config(str(path))

    def test_parse_error_reports_line_and_column(self):
        with pytest.raises(ConfigError, match="line 2"):
            parse_table_text("[link]\ndistance_m 30000\n")
        with pytest.raises(ConfigError, match="column"):
            parse_table_text("[link]\ndistance_m = \n")

    def test_key_outside_table(self):
        with pytest.raises(ConfigError, match=r"'distance_m' outside any \[table\]"):
            parse_table_text("distance_m = 1.0\n")

    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigError, match="unknown key"):
            config_from_tables({"link": {"bogus": 1.0}})
        with pytest.raises(ConfigError, match="unknown table"):
            config_from_tables({"bogus": {}})

    def test_paper_default_round_trip(self, tmp_path):
        base = RunConfig(sweep_axes=("waist_m",), sweep_values=((0.1, 0.1457, 0.2),))
        text = serialize_config(base)
        path = tmp_path / "round.cfg"
        path.write_text(text)
        again = parse_config(str(path))
        assert again == base
        assert serialize_config(again) == text

    def test_sweep_point_guard(self):
        tables = {
            "sweep": {
                "axes": ["distance_m", "cn2"],
                "distance_m": [float(d) for d in range(1, 402)],
                "cn2": [1e-15] * 400,
            }
        }
        with pytest.raises(ConfigError, match="100000"):
            config_from_tables(tables)

    def test_overrides(self):
        config = apply_overrides(RunConfig(), {"cn2": "1e-16", "cutoff": "2"})
        assert config.cn2 == 1e-16
        assert config.cutoff == 2
        with pytest.raises(ConfigError):
            apply_overrides(RunConfig(), {"nonsense": "1"})
        for cn2 in ("1e-5", "1e-20", "-1e-15"):
            with pytest.raises(ConfigError, match="'cn2'"):
                apply_overrides(RunConfig(), {"cn2": cn2})

    def test_full_ipe_grid_guard(self):
        with pytest.raises(ConfigError, match="grid_order"):
            apply_overrides(RunConfig(), {"kernel_fidelity": "full_ipe", "grid_order": "32"})

    def test_full_ipe_cutoff_guard(self):
        # a full-IPE kernel above cutoff 5 costs minutes to hours, and no
        # coupling is assembled above cutoff 6; validation alone must refuse
        # them (nothing is built)
        full_ipe = replace(RunConfig(), kernel_fidelity="full_ipe", grid_order=8)
        for cutoff in (6, 7, 8):
            with pytest.raises(ConfigError, match="'cutoff'"):
                validate_config(replace(full_ipe, cutoff=cutoff))
        validate_config(replace(full_ipe, cutoff=5))
        validate_config(replace(RunConfig(), cutoff=6))  # analytic kernels do not read it

    @pytest.mark.parametrize("command", ["kernel", "tmatrix", "entangle", "validate"])
    def test_full_ipe_strong_config_runs_to_the_phase_guard(self, command, tmp_path, capsys):
        # the digest's full_ipe_strong overrides are valid for every command;
        # each kernel command stops at the kernel's dispersive-phase guard
        # (exit 2)
        config = replace(
            RunConfig(), output_dir=str(tmp_path), kernel_fidelity="full_ipe", grid_order=8, cutoff=2,
            cn2=1e-14, steps=64, pair_modes=4,
        )
        validate_config(config, command)
        code = run_subcommand(command, config, out=io.StringIO())
        if command == "validate":
            assert code == EXIT_OK
        else:
            assert code == EXIT_NUMERIC
            assert "imaginary part" in capsys.readouterr().err

    def test_cutoff_limited_to_accurate_coupling(self):
        # the coupling sum is off by 8.4e-4 of its largest entry at cutoff 7
        for cutoff in ("7", "8"):
            with pytest.raises(ConfigError, match="'cutoff'"):
                apply_overrides(RunConfig(), {"cutoff": cutoff})
        assert main(["--set", "cutoff=7", "beam"]) == EXIT_CONFIG

    def test_fixed_mode_outside_pair_modes(self):
        with pytest.raises(ConfigError, match="fixed_mode"):
            validate_config(apply_overrides(RunConfig(), {"pair_modes": "4", "fixed_mode": "6"}), "entangle")
        with pytest.raises(ConfigError, match="fixed_mode"):
            validate_config(config_from_tables({"entangle": {"pair_modes": 3, "fixed_mode": 3}}), "entangle")
        assert main(["--set", "pair_modes=4", "--set", "fixed_mode=6", "entangle"]) == EXIT_CONFIG

    def test_fixed_mode_rule_only_for_entangle(self, tmp_path, capsys):
        # only the entangle scan reads fixed_mode, so other subcommands run
        overrides = ("--set", "pair_modes=4", "--set", "fixed_mode=6")
        assert run_cli(tmp_path, *overrides, "kernel") == EXIT_OK
        config_path = tmp_path / "sweep.cfg"
        config_path.write_text("[sweep]\naxes = [\"waist_m\"]\nwaist_m = [0.1, 0.2]\n")
        assert run_cli(tmp_path, "--config", str(config_path), *overrides, "sweep", "entangle") == EXIT_CONFIG
        assert "'fixed_mode'" in capsys.readouterr().err

    def test_pair_modes_resolvable_on_grid(self, tmp_path, capsys):
        coarse = replace(RunConfig(), grid_order=16)
        with pytest.raises(ConfigError, match="pair_modes"):
            validate_config(coarse, "entangle")
        validate_config(coarse, "kernel")  # only the entangle scan reads pair_modes
        assert run_cli(tmp_path, "--set", "grid_order=16", "entangle") == EXIT_CONFIG
        assert "'pair_modes'" in capsys.readouterr().err
        assert run_cli(tmp_path, "--set", "grid_order=16", "kernel") == EXIT_OK

    def test_max_mode_resolvable_on_grid_only_for_tmatrix(self, tmp_path, capsys):
        coarse = ("--set", "kernel_fidelity=full_ipe", "--set", "grid_order=4", "--set", "cutoff=1")
        assert run_cli(tmp_path, *coarse, "kernel") == EXIT_OK  # kernel does not read max_mode
        assert run_cli(tmp_path, *coarse, "tmatrix") == EXIT_CONFIG
        assert "'max_mode'" in capsys.readouterr().err

    @pytest.mark.parametrize("subcommand", ["kernel", "tmatrix", "entangle"])
    @pytest.mark.parametrize("override", ["pump_trad=100", "sigma_a_trad=1000"])
    def test_frequency_grid_must_stay_positive(self, tmp_path, capsys, subcommand, override):
        # the grid omega_p / 2 + x / sqrt(b) reaches omega <= 0 when the
        # bandwidths are wide against the pump, though each key is in range
        assert run_cli(tmp_path, "--set", override, subcommand) == EXIT_CONFIG
        assert "value for 'pump_trad'" in capsys.readouterr().err
        config_path = tmp_path / "sweep.cfg"
        config_path.write_text("[sweep]\naxes = [\"pump_trad\"]\npump_trad = [0.0, 100.0]\n")
        assert run_cli(tmp_path, "--config", str(config_path), "sweep", subcommand) == EXIT_CONFIG
        assert "value for 'pump_trad'" in capsys.readouterr().err
        assert run_cli(tmp_path, "--set", override, "schmidt") == EXIT_OK  # no frequency grid

    @pytest.mark.parametrize(
        "subcommand, code",
        [("tmatrix", EXIT_CONFIG), ("entangle", EXIT_CONFIG), ("kernel", EXIT_OK), ("beam", EXIT_OK)],
    )
    def test_flat_extinction_underflow_refused(self, tmp_path, capsys, subcommand, code):
        # exp(-100 * 500) underflows to 0 before any turbulence acts: every
        # mode would be fully absorbed, so the two readers of the modes refuse
        # it up front; kernel and beam write the finite zeros
        link = ("--set", "extinction_per_km=100", "--set", "distance_m=500000")
        assert run_cli(tmp_path, *link, subcommand) == code
        assert ("value for 'extinction_per_km'" in capsys.readouterr().err) == (code == EXIT_CONFIG)

    @pytest.mark.parametrize("subcommand", ["beam", "kernel", "tmatrix", "entangle"])
    @pytest.mark.parametrize("value", ["-1", "nan"])
    def test_extinction_outside_range_refused(self, tmp_path, capsys, subcommand, value):
        # the range check names the key before `turbulence.extinction_depth` sees the value
        assert run_cli(tmp_path, "--set", f"extinction_per_km={value}", subcommand) == EXIT_CONFIG
        assert "value for 'extinction_per_km' out of range" in capsys.readouterr().err

    @pytest.mark.parametrize("key", ["kernel_fidelity"])
    def test_value_outside_enum_names_key(self, key):
        with pytest.raises(ConfigError, match=f"value for '{key}' must be one of '"):
            apply_overrides(RunConfig(), {key: "bogus"})

    def test_hash_inside_string_is_not_a_comment(self):
        tables = parse_table_text('[turbulence]\nprofile_csv = "run#1.csv"  # a "quoted" comment\n')
        assert tables == {"turbulence": {"profile_csv": "run#1.csv"}}

    def test_comma_inside_string_is_not_a_separator(self):
        tables = parse_table_text('[sweep]\naxes = ["a,b"]\n')
        assert tables == {"sweep": {"axes": ["a,b"]}}
        tables = parse_table_text('[sweep]\naxes = ["a,b", "c" ,1.5]\n')
        assert tables == {"sweep": {"axes": ["a,b", "c", 1.5]}}

    def test_unterminated_string_reports_line_and_column(self):
        with pytest.raises(ConfigError, match="line 2, column 14"):
            parse_table_text('[sweep]\naxes = ["a,b]\n')
        with pytest.raises(ConfigError, match="line 3, column 23"):
            parse_table_text('[turbulence]\n\nprofile_csv = "run.csv\n')

    def test_literal_string_keeps_backslashes(self):
        tables = parse_table_text("[turbulence]\nprofile_csv = 'C:\\data\\cn2.csv'\n")
        assert tables == {"turbulence": {"profile_csv": "C:\\data\\cn2.csv"}}

    def test_scan_without_nondegenerate_row_rejected(self, tmp_path, capsys):
        # pair_modes = 2 scans n < 1, and with fixed_mode = 0 that is the degenerate row only
        assert run_cli(tmp_path, "--set", "pair_modes=2", "entangle") == EXIT_CONFIG
        assert "'pair_modes'" in capsys.readouterr().err
        config_path = tmp_path / "sweep.cfg"
        config_path.write_text(
            "[entangle]\npair_modes = 2\n\n[sweep]\naxes = [\"waist_m\"]\nwaist_m = [0.1, 0.2]\n"
        )
        assert run_cli(tmp_path, "--config", str(config_path), "sweep", "entangle") == EXIT_CONFIG
        assert "'pair_modes'" in capsys.readouterr().err
        assert run_cli(tmp_path, "--set", "pair_modes=2", "--set", "fixed_mode=1", "entangle") == EXIT_OK

    @pytest.mark.parametrize(
        "section, key, value",
        [
            ("link", "distance_m", '"30000"'),
            ("link", "distance_m", "[1000.0, 2000.0]"),
            ("link", "waist_m", "true"),
            ("solver", "steps", "true"),
            ("solver", "cutoff", "2.0"),
            ("channel", "kernel_fidelity", "1"),
            ("turbulence", "profile_csv", "1"),
        ],
    )
    def test_wrong_value_type_names_key(self, tmp_path, capsys, section, key, value):
        path = tmp_path / "typed.cfg"
        path.write_text(f"[{section}]\n{key} = {value}\n")
        with pytest.raises(ConfigError, match=f"'{key}'"):
            parse_config(str(path))
        assert main(["--config", str(path), "validate"]) == EXIT_CONFIG
        assert f"config error: {path}: value for '{key}'" in capsys.readouterr().err

    def test_int_values_accepted_for_float_keys(self):
        config = config_from_tables({"link": {"distance_m": 20000}, "sweep": {"axes": ["cn2"], "cn2": [0, 1e-16]}})
        assert config.distance_m == 20000.0 and config.sweep_values == ((0, 1e-16),)

    def test_sweep_point_types_checked(self):
        for points in (["0.1", 0.2], [True, 0.2]):
            with pytest.raises(ConfigError, match="'waist_m'"):
                config_from_tables({"sweep": {"axes": ["waist_m"], "waist_m": points}})
        with pytest.raises(ConfigError, match="'cutoff'"):
            config_from_tables({"sweep": {"axes": ["cutoff"], "cutoff": [1, 2.5]}})

    def test_unread_keys_rejected(self, tmp_path, capsys):
        with pytest.raises(ConfigError, match="unknown table"):
            config_from_tables({"run": {"seed": 1}})
        with pytest.raises(ConfigError, match="unknown key"):
            config_from_tables({"turbulence": {"outer_scale_wavenumber": 1.0}})
        # no subcommand propagates a density matrix, so the solver's scheme
        # and step-doubling switch are no config keys
        for key, value in (("scheme", "lindblad_truncated"), ("check_convergence", True)):
            path = tmp_path / f"{key}.cfg"
            path.write_text(f"[solver]\n{key} = {format_value(value)}\n")
            with pytest.raises(ConfigError, match=rf"unknown key '{key}' in \[solver\]"):
                parse_config(str(path))
            assert main(["--set", f"{key}={str(value).lower()}", "validate"]) == EXIT_CONFIG
            assert f"unknown override key '{key}'" in capsys.readouterr().err


def test_every_config_key_is_read(tmp_path):
    # each subcommand's runner and writer at defaults, and a full-IPE kernel
    # (the one reader of steps), between them read every config key
    read = set()

    class Recording(RunConfig):
        def __getattribute__(self, name):
            read.add(name)
            return super().__getattribute__(name)

    config = Recording(output_dir=str(tmp_path))
    for run, _, _ in cli._SUBCOMMANDS.values():
        run(config)[1](io.StringIO())
    full_ipe = Recording(output_dir=str(tmp_path), kernel_fidelity="full_ipe", grid_order=4, cutoff=1, steps=32)
    cli.run_kernel(full_ipe)[1](io.StringIO())
    assert sorted(set(_KEYS) - read) == []


def _in_range(key):
    # positive float ranges span decades, so their values are drawn log-uniformly
    lower, upper, _ = RANGES[key]
    if type(getattr(RunConfig, key)) is int:
        values = st.integers(lower, upper)
    elif lower > 0:
        exponents = st.floats(math.log10(lower), math.log10(upper))
        values = exponents.map(lambda e: min(max(10.0**e, lower), upper))
    else:
        values = st.floats(lower, upper)
    return st.one_of(st.just(0.0), values) if _KEYS[key]["zero_ok"] else values


# full-IPE draws stay small, for time: grid order <= 6, cutoff <= 2, steps <= 64
_FULL_IPE = st.fixed_dictionaries(
    {"kernel_fidelity": st.just("full_ipe"), "grid_order": st.integers(4, 6), "cutoff": st.integers(0, 2),
     "steps": st.integers(16, 64)}
)


class TestValidatorProperty:
    # the numeric failures a run may end in (exit 2); the last is the
    # full-IPE kernel's dispersive-phase guard
    NUMERIC = ("fully absorbed", "path integral did not converge", "imaginary part")

    @settings(max_examples=150, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(
        subcommand=st.sampled_from(["schmidt", "beam", "kernel", "tmatrix", "entangle"]),
        values=st.fixed_dictionaries({key: _in_range(key) for key in RANGES}),
        full_ipe=st.one_of(st.just({}), _FULL_IPE),
    )
    def test_accepted_config_runs_or_is_refused_by_key(self, tmp_path, subcommand, values, full_ipe):
        # every in-range config either runs to CSVs of finite numbers, is
        # refused naming a key, or ends in a documented numeric failure, and
        # never warns on the way
        for stale in tmp_path.glob("*.csv"):
            stale.unlink()
        config = replace(RunConfig(), output_dir=str(tmp_path), **{**values, **full_ipe})
        err = io.StringIO()
        with warnings.catch_warnings(record=True) as caught, contextlib.redirect_stderr(err):
            warnings.simplefilter("always")
            code = run_subcommand(subcommand, config, out=io.StringIO())
        assert not caught, [str(w.message) for w in caught]
        message = err.getvalue()
        if code == EXIT_CONFIG:
            assert re.search("'(" + "|".join(_KEYS) + ")'", message), message
        elif code == EXIT_NUMERIC:
            assert message.startswith("numeric failure: ") and any(m in message for m in self.NUMERIC), message
        else:
            assert code == EXIT_OK and not message
        for written in tmp_path.glob("*.csv"):
            cells = [cell for line in written.read_text().splitlines()[1:] for cell in line.split(",")]
            assert all(math.isfinite(float(cell)) for cell in cells), written.name


def run_cli(tmp_path, *args):
    return main(["--set", f"output_dir={tmp_path}", *args])


class TestSubcommands:
    def test_schmidt_stdout_numbers(self, tmp_path, capsys):
        code = run_cli(tmp_path, "schmidt")
        out = capsys.readouterr().out
        assert code == EXIT_OK
        assert "0.395062" in out
        assert "0.238988" in out
        assert "0.144573" in out
        assert "0.087458" in out
        assert "13.39" in out  # discarded percent
        assert "1.0745" in out  # amplitude prefactor
        assert "1.1546" in out  # probability prefactor the paper printed

    def test_tmatrix_zero_turbulence_identity(self, tmp_path, capsys):
        code = run_cli(tmp_path, "tmatrix", "--set", "cn2=0", "--set", "grid_order=32")
        assert code == EXIT_OK
        rows = (tmp_path / "tmatrix.csv").read_text().splitlines()
        assert rows[0] == "n,m,S"
        for line in rows[1:]:
            n, m, s = line.split(",")
            expected = 1.0 if n == m else 0.0
            assert abs(float(s) - expected) < 1e-9

    def test_kernel_csv(self, tmp_path):
        code = run_cli(tmp_path, "kernel", "--set", "grid_order=8", "--set", "cn2=1e-16")
        assert code == EXIT_OK
        lines = (tmp_path / "kernel.csv").read_text().splitlines()
        assert lines[0] == "omega1_Trad_s,omega2_Trad_s,P"
        assert len(lines) == 1 + 64
        for line in lines[1:]:
            for cell in line.split(","):
                float(cell)  # plain decimal fields, no wrapper reprs

    def test_coupling_dump(self, tmp_path):
        code = run_cli(tmp_path, "coupling", "--set", "cutoff=1")
        assert code == EXIT_OK
        lines = (tmp_path / "coupling.csv").read_text().splitlines()
        assert lines[0] == "lm,rm,ln,rn,lu,ru,lv,rv,re,im"
        assert len(lines) > 10

    def test_entangle_csv(self, tmp_path):
        code = run_cli(
            tmp_path, "entangle",
            "--set", "cn2=1e-16", "--set", "grid_order=32", "--set", "pair_modes=6",
        )
        assert code == EXIT_OK
        lines = (tmp_path / "entangle.csv").read_text().splitlines()
        assert lines[0] == "n,EN_initial,EN_final,fidelity,degenerate_flag"
        assert len(lines) == 6  # pair_modes - 1 scan rows plus a guard mode
        first = lines[1].split(",")
        assert first[4] == "1"  # n = 0 with fixed mode 0 is degenerate

    def test_validate_passes(self, tmp_path, capsys):
        code = run_cli(tmp_path, "validate")
        out = capsys.readouterr().out
        assert code == EXIT_OK
        assert "FAIL" not in out
        assert out.count("PASS") >= 6

    @pytest.mark.parametrize("overrides", [{}, {"cn2": 3.7e-16}, {"waist_m": 0.04, "cn2": 1e-16}, {"waist_m": 0.05}])
    def test_validate_quadratures_are_the_general_oracles(self, overrides):
        # validate's quadratures of the fundamental tuple and of the (r=1, l=0)
        # free-propagation element equal the general oracles of
        # tests/quadrature_oracle.py to the bit, at the (cn2, waist_m) of
        # tools/output_digest.py's defaults, coarse and graded sets and at a
        # 5 cm waist, so neither copy can drift without this failing; also
        # over 41 C_n^2 and 21 waists around the config's, where a real
        # radial sum or scaling, or a real exponential in the free-propagation
        # integrand, moves some of the values (not always the config's)
        config = replace(RunConfig(), **overrides)
        w0, lam, z_r = config.waist_m, config.wavelength_m, config.geometry.rayleigh_range
        i00, i10 = LGIndex(l=0, r=0), LGIndex(l=0, r=1)
        for cn2 in (max(config.cn2, 1e-16), *np.geomspace(1e-16, 1e-12, 41)):
            args = (0.5 * z_r, float(cn2), w0, lam, 1e-4 / w0)
            oracle, l_t = cli._fundamental_coupling_quadrature(*args)
            assert oracle == coupling_oracle_extrapolated(i00, i00, i00, i00, *args)
            assert l_t == coupling_numeric_oracle(i00, i00, i00, i00, *args)[1]
        for waist in map(float, (w0, *w0 * np.geomspace(0.25, 4.0, 21))):
            z_r = replace(config, waist_m=waist).geometry.rayleigh_range
            assert cli._free_prop_quadrature(z_r, waist) == free_prop_S_numeric(i10, i00, z_r, waist)

    def test_validate_reads_the_library_prefactor(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(lgmodes, "COUPLING_PREFACTOR", 8.2)
        assert run_cli(tmp_path, "validate") == EXIT_NUMERIC
        assert "FAIL decay_constant_-54.10" in capsys.readouterr().out

    def test_beam_family(self, tmp_path):
        code = run_cli(tmp_path, "beam")
        assert code == EXIT_OK
        lines = (tmp_path / "beam.csv").read_text().splitlines()
        assert lines[0].startswith("cn2")
        assert len(lines) == 1 + 5 * 25

    def test_beam_leaves_the_link_decay_to_sweeps(self, tmp_path, monkeypatch):
        # only `sweep beam` reports the configured link's probability
        calls, decay = [], cli.ipe.analytic_decay

        def recording(*args, **kwargs):
            calls.append(args)
            return decay(*args, **kwargs)

        monkeypatch.setattr(cli.ipe, "analytic_decay", recording)
        assert run_cli(tmp_path, "beam") == EXIT_OK
        assert calls == []
        config = replace(RunConfig(), output_dir=str(tmp_path), sweep_axes=("waist_m",), sweep_values=((0.1, 0.2),))
        assert sweep(config, "beam") == EXIT_OK
        assert len(calls) == 2

    def test_determinism_byte_identical(self, tmp_path):
        first = tmp_path / "a"
        second = tmp_path / "b"
        for target in (first, second):
            code = main(["--set", f"output_dir={target}", "tmatrix", "--set", "grid_order=32"])
            assert code == EXIT_OK
        assert (first / "tmatrix.csv").read_bytes() == (second / "tmatrix.csv").read_bytes()
        assert (first / "traces.csv").read_bytes() == (second / "traces.csv").read_bytes()

    def test_config_error_exit_code(self, tmp_path):
        code = main(["--set", "cn2=banana", "schmidt"])
        assert code == EXIT_CONFIG

    def test_missing_config_file(self):
        assert main(["--config", "/nonexistent/path.cfg", "schmidt"]) == EXIT_CONFIG

    def test_missing_profile_csv_at_validation(self):
        with pytest.raises(ConfigError, match="profile_csv"):
            apply_overrides(RunConfig(), {"profile_csv": "/nonexistent/prof.csv"})

    def test_profile_csv_used_by_kernel(self, tmp_path):
        path = tmp_path / "prof.csv"
        path.write_text("height_m,cn2\n1.0,1e-15\n100.0,1e-15\n")
        code = main([
            "--set", f"output_dir={tmp_path}", "--set", f"profile_csv={path}",
            "--set", "grid_order=8", "kernel",
        ])
        assert code == EXIT_OK
        lines = (tmp_path / "kernel.csv").read_text().splitlines()
        assert len(lines) == 65

    def test_profile_csv_full_ipe_kernel_at_any_length(self, tmp_path):
        # the last RK4 node used to land a few ulps past this path's end
        path = tmp_path / "prof.csv"
        path.write_text("height_m,cn2\n2,1e-15\n50,1e-16\n500,1e-17\n")
        code = main([
            "--set", f"output_dir={tmp_path}", "--set", f"profile_csv={path}",
            "--set", "kernel_fidelity=full_ipe", "--set", "grid_order=8",
            "--set", "cutoff=1", "--set", "distance_m=16782.6", "kernel",
        ])
        assert code == EXIT_OK
        assert len((tmp_path / "kernel.csv").read_text().splitlines()) == 65

    def test_profile_csv_zero_height_exits_config(self, tmp_path, capsys):
        path = tmp_path / "prof.csv"
        path.write_text("height_m,cn2\n0.0,1e-15\n30.0,1e-16\n")
        code = main([
            "--set", f"output_dir={tmp_path}", "--set", f"profile_csv={path}",
            "--set", "grid_order=8", "kernel",
        ])
        assert code == EXIT_CONFIG
        assert "profile height 0.0 m must be > 0" in capsys.readouterr().err

    def test_profile_csv_nan_height_exits_config(self, tmp_path, capsys):
        # used to exit 0 with a kernel.csv of NaN
        path = tmp_path / "prof.csv"
        path.write_text("height_m,cn2\n2.0,1e-15\nnan,1e-16\n500,1e-17\n")
        code = main([
            "--set", f"output_dir={tmp_path}", "--set", f"profile_csv={path}",
            "--set", "grid_order=8", "kernel",
        ])
        assert code == EXIT_CONFIG
        assert f"{path}: profile heights must be finite" in capsys.readouterr().err
        assert not (tmp_path / "kernel.csv").exists()

    def test_numeric_failure_exit_code(self, monkeypatch):
        def explode(*args, **kwargs):
            raise SolverError("unconverged", 0.0, 1.0)

        monkeypatch.setattr(cli.ipe, "distance_sweep", explode)
        assert run_subcommand("beam", RunConfig()) == EXIT_NUMERIC

    def test_fully_absorbed_mode_is_a_numeric_failure(self, tmp_path, capsys):
        # every kernel entry underflows to 0, so no transmission row is defined
        assert run_cli(tmp_path, "--set", "cn2=1e-11", "tmatrix") == EXIT_NUMERIC
        assert "fully absorbed" in capsys.readouterr().err
        assert not (tmp_path / "tmatrix.csv").exists()

    def test_fully_absorbed_pair_is_a_numeric_failure(self, tmp_path, capsys, recwarn):
        assert run_cli(tmp_path, "--set", "cn2=1e-11", "entangle") == EXIT_NUMERIC
        assert "pair fully absorbed" in capsys.readouterr().err
        assert not recwarn.list
        assert not (tmp_path / "entangle.csv").exists()

    def test_full_ipe_strong_link_tabulates_only_its_steps(self, tmp_path, monkeypatch):
        # an accepted draw that classical RK4 would need about 2.4e10 steps
        # for: Lawson steps run it at its own 40 and tabulate no other count
        counts, nodes = [], temporal.rk4_nodes

        def recording(profile, geom, steps):
            counts.append(steps)
            return nodes(profile, geom, steps)

        monkeypatch.setattr(temporal, "rk4_nodes", recording)
        overrides = (
            "kernel_fidelity=full_ipe", "grid_order=6", "cutoff=2", "steps=40", "cn2=2.68e-12",
            "distance_m=344773", "waist_m=0.00413", "wavelength_m=4.60e-6",
        )
        assert run_cli(tmp_path, *(arg for item in overrides for arg in ("--set", item)), "kernel") == EXIT_OK
        assert counts == [40]
        rows = list(csv.reader((tmp_path / "kernel.csv").read_text().splitlines()))[1:]
        assert all(math.isfinite(float(value)) for row in rows for value in row)

    def test_gnuplot_hints(self, capsys):
        assert main(["--gnuplot-hints", "kernel"]) == EXIT_OK
        assert "omega1" in capsys.readouterr().out

    def test_env_var_default_config(self, tmp_path, monkeypatch, capsys):
        path = tmp_path / "env.cfg"
        path.write_text(PAPER_CONFIG)
        monkeypatch.setenv("TURBULINK_CONFIG", str(path))
        code = main(["--set", f"output_dir={tmp_path}", "schmidt"])
        assert code == EXIT_OK
        assert "0.395" in capsys.readouterr().out

    # argv with {out} (an empty output directory), {file} (a plain file),
    # {dir} (an empty directory), {sweep} (a two-point sweep config) and
    # {cfg}/{csv} (a config and a profile that are not UTF-8), and the text
    # that stderr must name
    BAD_INVOCATIONS = {
        "threads_not_an_int": (["--config", "{sweep}", "--threads", "x", "sweep", "beam"], "--threads"),
        "threads_zero": (["--config", "{sweep}", "--threads", "0", "sweep", "beam"], "--threads"),
        "threads_negative": (["--config", "{sweep}", "--threads", "-3", "sweep", "beam"], "--threads"),
        "unknown_command": (["bogus"], "'bogus'"),
        "unknown_flag": (["--bogus", "schmidt"], "--bogus"),
        "target_without_sweep": (["schmidt", "extra"], "'extra'"),
        "output_dir_is_a_file": (["--set", "output_dir={file}", "schmidt"], "'output_dir'"),
        "output_dir_below_a_file": (["--set", "output_dir={file}/sub", "schmidt"], "{file}/sub"),
        "sweep_output_dir_below_a_file": (
            ["--config", "{sweep}", "--set", "output_dir={file}/sub", "sweep", "beam"],
            "{file}/sub",
        ),
        "profile_csv_is_a_directory": (["--set", "profile_csv={dir}", "kernel"], "'profile_csv'"),
        "config_not_utf8": (["--config", "{cfg}", "schmidt"], "{cfg}"),
        "profile_csv_not_utf8": (["--set", "profile_csv={csv}", "--set", "grid_order=8", "kernel"], "{csv}"),
    }

    @pytest.mark.parametrize("case", sorted(BAD_INVOCATIONS))
    def test_usage_and_path_errors_exit_config(self, tmp_path, capsys, case):
        paths = {name: tmp_path / name for name in ("out", "file", "dir", "sweep", "cfg", "csv")}
        paths["out"].mkdir()
        paths["dir"].mkdir()
        paths["file"].write_text("not a directory\n")
        paths["sweep"].write_text(PAPER_CONFIG + '\n[sweep]\naxes = ["waist_m"]\nwaist_m = [0.1, 0.2]\n')
        paths["cfg"].write_bytes(b"[link]\n# \xe9\ndistance_m = 30000.0\n")
        paths["csv"].write_bytes(b"height_m,cn2\n1.0,1e-15\n\xff100.0,1e-16\n")
        argv, named = self.BAD_INVOCATIONS[case]
        fill = {name: str(path) for name, path in paths.items()}
        code = main(["--set", f"output_dir={paths['out']}"] + [arg.format(**fill) for arg in argv])
        captured = capsys.readouterr()
        lines = captured.err.splitlines()
        assert code == EXIT_CONFIG and not captured.out
        assert len(lines) == 1 and named.format(**fill) in lines[0], lines
        assert not list(tmp_path.rglob("*.csv"))


class TestSweep:
    def make_config(self, tmp_path, axes_block):
        path = tmp_path / "sweep.cfg"
        path.write_text(PAPER_CONFIG + axes_block)
        return str(path)

    def test_requires_axes(self, tmp_path):
        code = main(["--set", f"output_dir={tmp_path}", "sweep", "beam"])
        assert code == EXIT_CONFIG

    def test_single_point_matches_direct(self, tmp_path, capsys):
        config_path = self.make_config(
            tmp_path, "\n[sweep]\naxes = [\"waist_m\"]\nwaist_m = [0.1457]\n"
        )
        code = main(["--config", config_path, "--set", f"output_dir={tmp_path}", "sweep", "beam"])
        assert code == EXIT_OK
        lines = (tmp_path / "sweep_beam.csv").read_text().splitlines()
        assert lines[0] == "waist_m,probability"
        waist, probability = lines[1].split(",")
        from turbulink.config import RunConfig
        from turbulink.ipe import analytic_decay
        from turbulink.turbulence import LinkGeometry, TurbulenceProfile

        direct = analytic_decay(
            TurbulenceProfile.from_constant(1e-15),
            LinkGeometry(
                path_length=30000.0,
                transmitter_height=19.0,
                receiver_height=19.0,
                waist=0.1457,
                wavelength=3.95e-6,
            ),
        )
        assert float(probability) == pytest.approx(direct, rel=1e-12)

    @pytest.mark.parametrize(
        "subcommand, implied",
        [
            ("kernel", lambda rows: float(rows[4 * 8 + 4][2])),  # the central pair of grid 8
            ("tmatrix", lambda rows: min(float(r[2]) for r in rows if r[0] == r[1])),
            ("coupling", lambda rows: next(float(r[8]) for r in rows if r[:8] == ["0"] * 8)),
            ("schmidt", lambda rows: 1.0 - sum(float(r[1]) for r in rows)),
        ],
    )
    def test_single_point_matches_direct_run(self, tmp_path, subcommand, implied):
        block = "\n[channel]\ngrid_order = 8\n\n[sweep]\naxes = [\"waist_m\"]\nwaist_m = [0.2]\n"
        config_path = self.make_config(tmp_path, block)
        code = main(["--config", config_path, "--set", f"output_dir={tmp_path}", "sweep", subcommand])
        assert code == EXIT_OK
        value = float((tmp_path / f"sweep_{subcommand}.csv").read_text().splitlines()[1].split(",")[1])
        direct = tmp_path / "direct"
        code = main(["--config", config_path, "--set", f"output_dir={direct}", "--set", "waist_m=0.2", subcommand])
        assert code == EXIT_OK
        rows = [line.split(",") for line in (direct / f"{subcommand}.csv").read_text().splitlines()[1:]]
        assert value == pytest.approx(implied(rows), rel=1e-12)

    def test_gnuplot_hints_name_sweep_columns(self, tmp_path, capsys):
        block = "\n[sweep]\naxes = [\"cn2\", \"waist_m\"]\ncn2 = [1e-16]\nwaist_m = [0.1]\n"
        config_path = self.make_config(tmp_path, block)
        assert main(["--config", config_path, "--gnuplot-hints", "sweep", "tmatrix"]) == EXIT_OK
        assert capsys.readouterr().out == "columns: cn2, waist_m, S_diag_min\n"

    def test_waist_sweep_argmax_reproduces_peak(self, tmp_path):
        waists = [round(0.06 + 0.005 * k, 3) for k in range(41)]
        block = "\n[sweep]\naxes = [\"waist_m\"]\nwaist_m = [" + ", ".join(map(str, waists)) + "]\n"
        config_path = self.make_config(tmp_path, block)
        code = main([
            "--config", config_path, "--set", f"output_dir={tmp_path}",
            "--set", "cn2=1e-16", "sweep", "beam",
        ])
        assert code == EXIT_OK
        lines = (tmp_path / "sweep_beam.csv").read_text().splitlines()[1:]
        table = [tuple(map(float, line.split(","))) for line in lines]
        best = max(table, key=lambda row: row[1])[0]
        assert abs(best - 0.1457) / 0.1457 < 0.05

    @pytest.mark.parametrize("subcommand", ["schmidt", "beam", "coupling", "kernel", "tmatrix", "entangle"])
    def test_parallel_soundness(self, tmp_path, subcommand):
        # schmidt reads no link key, so it sweeps a bandwidth
        sweep_block = "axes = [\"waist_m\"]\nwaist_m = [0.1, 0.1457, 0.2]\n"
        if subcommand == "schmidt":
            sweep_block = "axes = [\"sigma_a_trad\"]\nsigma_a_trad = [5.0, 10.0, 20.0]\n"
        block = "\n[solver]\ncutoff = 1\n\n[channel]\ngrid_order = 8\n\n[entangle]\npair_modes = 4\n\n[sweep]\n"
        config_path = self.make_config(tmp_path, block + sweep_block)
        outputs = []
        for threads in ("1", "2"):
            out_dir = tmp_path / f"t{threads}"
            code = main([
                "--config", config_path, "--set", f"output_dir={out_dir}",
                "--threads", threads, "sweep", subcommand,
            ])
            assert code == EXIT_OK
            outputs.append((out_dir / f"sweep_{subcommand}.csv").read_bytes())
        assert outputs[0] == outputs[1]

    def test_thread_pool_bounded_by_points_and_cpus(self, tmp_path, monkeypatch):
        # a recorder stands in for the pool and runs the points serially
        workers = []

        class SerialPool:
            def __init__(self, max_workers):
                workers.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr(cli, "ThreadPoolExecutor", SerialPool)
        config_path = self.make_config(tmp_path, "\n[sweep]\naxes = [\"cn2\"]\ncn2 = [1e-16, 1e-15, 1e-14]\n")
        for cpus in (8, 2, 1):
            monkeypatch.setattr(cli.os, "cpu_count", lambda: cpus)
            code = main([
                "--config", config_path, "--set", f"output_dir={tmp_path}", "--threads", "64", "sweep", "beam",
            ])
            assert code == EXIT_OK
        assert workers == [3, 2]  # one CPU runs the points in the calling thread

    @pytest.mark.parametrize("threads", [0, -3])
    def test_library_sweep_refuses_threads_below_one(self, tmp_path, capsys, threads):
        config = RunConfig(output_dir=str(tmp_path), sweep_axes=("waist_m",), sweep_values=((0.1, 0.2),))
        assert sweep(config, "beam", threads=threads) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert not captured.out
        assert captured.err.splitlines() == [f"config error: argument --threads: must be >= 1, got {threads}"]
        assert not list(tmp_path.rglob("*.csv"))

    def test_entangle_sweep_matches_direct_scan(self, tmp_path):
        # the sweep summary scans the same n range as the entangle subcommand,
        # which stops below pair_modes
        block = "\n[entangle]\npair_modes = 4\n\n[sweep]\naxes = [\"waist_m\"]\nwaist_m = [0.1, 0.2]\n"
        config_path = self.make_config(tmp_path, block)
        code = main(["--config", config_path, "--set", f"output_dir={tmp_path}", "sweep", "entangle"])
        assert code == EXIT_OK
        lines = (tmp_path / "sweep_entangle.csv").read_text().splitlines()
        assert lines[0] == "waist_m,EN_final_min"
        assert len(lines) == 3
        for line in lines[1:]:
            waist, en_min = map(float, line.split(","))
            direct = tmp_path / f"direct_{waist}"
            code = main([
                "--config", config_path, "--set", f"output_dir={direct}",
                "--set", f"waist_m={waist}", "entangle",
            ])
            assert code == EXIT_OK
            rows = [row.split(",") for row in (direct / "entangle.csv").read_text().splitlines()[1:]]
            assert [int(row[0]) for row in rows] == [0, 1, 2]
            assert en_min == min(float(row[2]) for row in rows if row[4] == "0")

    def test_string_cell_with_comma_is_quoted(self, tmp_path):
        profile = tmp_path / "heights,cn2.csv"
        profile.write_text("height_m,cn2\n1.0,1e-15\n100.0,1e-15\n")
        block = f"\n[sweep]\naxes = [\"profile_csv\"]\nprofile_csv = ['{profile}']\n"
        config_path = self.make_config(tmp_path, block)
        code = main([
            "--config", config_path, "--set", f"output_dir={tmp_path}",
            "--set", "grid_order=8", "sweep", "kernel",
        ])
        assert code == EXIT_OK
        with open(tmp_path / "sweep_kernel.csv", newline="") as handle:
            header, *rows = csv.reader(handle)
        assert header == ["profile_csv", "P_center"]
        assert [len(row) for row in rows] == [2]
        assert rows[0][0] == str(profile)

    def test_axis_ordering_in_output(self, tmp_path):
        block = "\n[sweep]\naxes = [\"cn2\"]\ncn2 = [1e-14, 1e-16, 1e-15]\n"
        config_path = self.make_config(tmp_path, block)
        code = main(["--config", config_path, "--set", f"output_dir={tmp_path}", "sweep", "beam"])
        assert code == EXIT_OK
        lines = (tmp_path / "sweep_beam.csv").read_text().splitlines()[1:]
        values = [float(line.split(",")[0]) for line in lines]
        assert values == sorted(values)
