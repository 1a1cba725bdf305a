"""Tests for the typed error hierarchy and its CLI exit-code mapping.

Every user-input failure derives from :class:`repro.errors.ReproError`,
carries structured context (path/line/field) and maps to a documented
exit code: 2 for configuration, 3 for trace format, 4 for simulation
(see ``docs/robustness.md``).
"""

import numpy as np
import pytest

from repro.cli import main
from repro.core.config import DoppelgangerConfig
from repro.core.maps import MapConfig
from repro.errors import (
    ConfigError,
    ReproError,
    SimulationFault,
    TraceFormatError,
)
from repro.trace.io import load_trace
from repro.workloads.registry import get_workload


class TestHierarchy:
    def test_exit_codes(self):
        assert ReproError("x").exit_code == 1
        assert ConfigError("x").exit_code == 2
        assert TraceFormatError("x").exit_code == 3
        assert SimulationFault("x").exit_code == 4

    def test_backward_compatible_subclassing(self):
        # Pre-existing `except ValueError` / `except RuntimeError`
        # callers must keep working unchanged.
        assert isinstance(ConfigError("x"), ValueError)
        assert isinstance(TraceFormatError("x"), ValueError)
        assert isinstance(SimulationFault("x"), RuntimeError)
        assert isinstance(ConfigError("x"), ReproError)

    def test_context_formatting(self):
        err = ReproError("bad value", path="a.npz", line=7, field="addrs")
        assert err.context() == "a.npz:7: field 'addrs'"
        assert str(err) == "a.npz:7: field 'addrs': bad value"
        assert str(ReproError("bare")) == "bare"
        assert str(ReproError("m", field="bits")) == "field 'bits': m"
        assert ReproError("m", path="p").context() == "p"


class TestConfigErrors:
    def test_map_config_bits(self):
        with pytest.raises(ConfigError) as excinfo:
            MapConfig(bits=-1)
        assert excinfo.value.field == "bits"

    def test_doppelganger_config_pow2(self):
        with pytest.raises(ConfigError) as excinfo:
            DoppelgangerConfig(tag_entries=1000)
        assert excinfo.value.field == "tag_entries"

    def test_doppelganger_config_data_fraction(self):
        with pytest.raises(ConfigError) as excinfo:
            DoppelgangerConfig(data_fraction=2.0)
        assert excinfo.value.field == "data_fraction"

    def test_legacy_value_error_handlers_still_catch(self):
        with pytest.raises(ValueError):
            DoppelgangerConfig(tag_entries=1000)

    def test_unknown_workload(self):
        with pytest.raises(ConfigError) as excinfo:
            get_workload("nope")
        assert "nope" in str(excinfo.value)
        assert "swaptions" in str(excinfo.value)  # lists the choices
        with pytest.raises(ValueError):
            get_workload("nope")


class TestTraceErrors:
    def test_missing_file(self, tmp_path):
        path = str(tmp_path / "missing.npz")
        with pytest.raises(TraceFormatError) as excinfo:
            load_trace(path)
        assert excinfo.value.path == path
        assert "no such trace file" in str(excinfo.value)

    def test_unreadable_archive(self, tmp_path):
        path = tmp_path / "garbage.npz"
        path.write_text("this is not an npz archive")
        with pytest.raises(TraceFormatError) as excinfo:
            load_trace(str(path))
        assert "not a readable .npz" in str(excinfo.value)

    def test_missing_required_array_names_the_field(self, tmp_path):
        path = tmp_path / "partial.npz"
        np.savez(path, addrs=np.zeros(3, dtype=np.int64))
        with pytest.raises(TraceFormatError) as excinfo:
            load_trace(str(path))
        assert excinfo.value.field == "format_version"

    @staticmethod
    def _minimal_fields(n=0, version=2):
        zeros = np.zeros(n, dtype=np.int64)
        empty_f = np.zeros(0, dtype=np.float64)
        return dict(
            format_version=np.int64(version),
            name=np.bytes_(b"t"),
            block_size=np.int64(64),
            cores=zeros,
            addrs=zeros,
            is_write=np.zeros(n, dtype=bool),
            approx=np.zeros(n, dtype=bool),
            region_ids=zeros,
            value_ids=zeros,
            gaps=zeros,
            values_flat=empty_f,
            value_offsets=np.zeros(1, dtype=np.int64),
            image_addrs=np.zeros(0, dtype=np.int64),
            image_vids=np.zeros(0, dtype=np.int64),
            region_names=np.array([], dtype=np.str_),
            region_base=np.zeros(0, dtype=np.int64),
            region_size=np.zeros(0, dtype=np.int64),
            region_dtype=np.zeros(0, dtype=np.int64),
            region_approx=np.zeros(0, dtype=bool),
            region_vmin=empty_f,
            region_vmax=empty_f,
        )

    def test_unsupported_version(self, tmp_path):
        path = tmp_path / "v99.npz"
        np.savez(path, **self._minimal_fields(version=99))
        with pytest.raises(TraceFormatError) as excinfo:
            load_trace(str(path))
        assert "version 99" in str(excinfo.value)
        assert excinfo.value.field == "format_version"

    def test_object_array_is_refused_unpickled(self, tmp_path):
        fields = self._minimal_fields()
        fields["region_names"] = np.array([_PickleBomb()], dtype=object)
        path = tmp_path / "pickled.npz"
        np.savez(path, allow_pickle=True, **fields)
        _PickleBomb.loaded = False
        with pytest.raises(TraceFormatError) as excinfo:
            load_trace(str(path))
        assert excinfo.value.field == "region_names"
        assert not _PickleBomb.loaded

    def test_column_length_mismatch(self, tmp_path):
        fields = self._minimal_fields(n=3)
        fields["is_write"] = np.zeros(2, dtype=bool)
        path = tmp_path / "ragged.npz"
        np.savez(path, **fields)
        with pytest.raises(TraceFormatError) as excinfo:
            load_trace(str(path))
        assert excinfo.value.field == "is_write"
        assert excinfo.value.path == str(path)


def _mark_unpickled():
    """Called only if a pickled :class:`_PickleBomb` is ever loaded."""
    _PickleBomb.loaded = True
    return _PickleBomb()


class _PickleBomb:
    """An object whose unpickling is observable."""

    loaded = False

    def __reduce__(self):
        return (_mark_unpickled, ())


class TestCLIExitCodes:
    def test_unknown_workload_exits_2(self, capsys):
        assert main(["table2", "--workloads", "nope"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "Traceback" not in err

    def test_replay_missing_trace_exits_3(self, capsys, tmp_path):
        assert main(["replay", str(tmp_path / "missing.npz")]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "no such trace file" in err
        assert "Traceback" not in err

    def test_replay_garbage_trace_exits_3(self, capsys, tmp_path):
        path = tmp_path / "garbage.npz"
        path.write_text("nope")
        assert main(["replay", str(path)]) == 3
        assert "not a readable .npz" in capsys.readouterr().err

    def test_debug_log_level_keeps_the_traceback(self, capsys, tmp_path):
        from repro.obs import configure_logging

        try:
            assert main(
                ["table2", "--workloads", "nope", "--log-level", "debug"]
            ) == 2
            err = capsys.readouterr().err
            assert "Traceback" in err
            assert "error:" in err
        finally:
            configure_logging("warning")

    def test_bad_fault_rate_exits_2(self, capsys):
        assert main(["table3", "--fault-rate", "1.5"]) == 2
        assert "error:" in capsys.readouterr().err
