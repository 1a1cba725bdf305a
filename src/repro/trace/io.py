"""Trace serialization.

Traces are expensive to regenerate (the workloads compute real kernels
to populate their output regions), so the harness and downstream users
can persist them: :func:`save_trace` writes a single compressed
``.npz`` file; :func:`load_trace` restores a fully equivalent
:class:`~repro.trace.trace.Trace`.

The ragged value table is stored as one concatenated float64 array plus
offsets; regions are stored column-wise with their annotations. Every
array is plain data (region names are fixed-width unicode), so
:func:`load_trace` reads archives with ``allow_pickle=False`` and never
unpickles a user-supplied file.
"""

from __future__ import annotations

import os

import numpy as np

from repro.errors import TraceFormatError
from repro.trace.record import DType
from repro.trace.region import Region, RegionMap
from repro.trace.trace import Trace

_FORMAT_VERSION = 2

#: Arrays every trace file must contain.
_REQUIRED_FIELDS = (
    "format_version", "name", "block_size", "cores", "addrs", "is_write",
    "approx", "region_ids", "value_ids", "gaps", "values_flat",
    "value_offsets", "image_addrs", "image_vids", "region_names",
    "region_base", "region_size", "region_dtype", "region_approx",
    "region_vmin", "region_vmax",
)


def save_trace(trace: Trace, path: str) -> None:
    """Write ``trace`` to ``path`` (.npz, compressed)."""
    values_flat = (
        np.concatenate([np.asarray(v, dtype=np.float64) for v in trace.values])
        if trace.values
        else np.empty(0, dtype=np.float64)
    )
    offsets = np.zeros(len(trace.values) + 1, dtype=np.int64)
    for i, v in enumerate(trace.values):
        offsets[i + 1] = offsets[i] + len(v)

    image_addrs = np.array(sorted(trace.initial_image), dtype=np.int64)
    image_vids = np.array(
        [trace.initial_image[a] for a in image_addrs], dtype=np.int64
    )

    regions = list(trace.regions)
    np.savez_compressed(
        path,
        format_version=np.int64(_FORMAT_VERSION),
        name=np.bytes_(trace.name.encode()),
        block_size=np.int64(trace.block_size),
        cores=trace.cores,
        addrs=trace.addrs,
        is_write=trace.is_write,
        approx=trace.approx,
        region_ids=trace.region_ids,
        value_ids=trace.value_ids,
        gaps=trace.gaps,
        values_flat=values_flat,
        value_offsets=offsets,
        image_addrs=image_addrs,
        image_vids=image_vids,
        region_names=np.array([r.name for r in regions], dtype=np.str_),
        region_base=np.array([r.base for r in regions], dtype=np.int64),
        region_size=np.array([r.size for r in regions], dtype=np.int64),
        region_dtype=np.array([int(r.dtype) for r in regions], dtype=np.int64),
        region_approx=np.array([r.approx for r in regions], dtype=bool),
        region_vmin=np.array([r.vmin for r in regions], dtype=np.float64),
        region_vmax=np.array([r.vmax for r in regions], dtype=np.float64),
    )


def load_trace(path: str) -> Trace:
    """Restore a trace written by :func:`save_trace`.

    Raises:
        TraceFormatError: the file is missing, not a trace archive, has
            an unsupported format version, lacks a required array or
            holds an object (pickled) array — always with the file path
            (and offending field) attached.
    """
    if not os.path.exists(path):
        raise TraceFormatError("no such trace file", path=path)
    try:
        archive = np.load(path, allow_pickle=False)
    except Exception as exc:
        raise TraceFormatError(
            f"not a readable .npz trace archive ({exc})", path=path
        ) from exc
    with archive as data:
        present = set(data.files)
        for name in _REQUIRED_FIELDS:
            if name not in present:
                raise TraceFormatError(
                    "required array missing from trace archive",
                    path=path, field=name,
                )
        try:
            version = int(data["format_version"])
        except (TypeError, ValueError) as exc:
            raise TraceFormatError(
                "format_version is not an integer",
                path=path, field="format_version",
            ) from exc
        if version != _FORMAT_VERSION:
            raise TraceFormatError(
                f"unsupported trace format version {version} "
                f"(this build reads version {_FORMAT_VERSION})",
                path=path, field="format_version",
            )
        cols = {}
        for name in _REQUIRED_FIELDS:
            try:
                cols[name] = data[name]
            except ValueError as exc:  # an object array needs pickle
                raise TraceFormatError(
                    f"array is not plain data ({exc})", path=path, field=name
                ) from exc
        n = len(cols["addrs"])
        for name in ("is_write", "approx", "region_ids", "value_ids", "gaps",
                     "cores"):
            if len(cols[name]) != n:
                raise TraceFormatError(
                    f"column length {len(cols[name])} != {n} (addrs)",
                    path=path, field=name,
                )

        regions = RegionMap()
        names = cols["region_names"]
        for i in range(len(names)):
            try:
                regions.add(
                    Region(
                        str(names[i]),
                        int(cols["region_base"][i]),
                        int(cols["region_size"][i]),
                        DType(int(cols["region_dtype"][i])),
                        approx=bool(cols["region_approx"][i]),
                        vmin=float(cols["region_vmin"][i]),
                        vmax=float(cols["region_vmax"][i]),
                    )
                )
            except (TypeError, ValueError, IndexError) as exc:
                raise TraceFormatError(
                    f"invalid region record {i}: {exc}",
                    path=path, line=i, field="region_*",
                ) from exc

        offsets = cols["value_offsets"]
        flat = cols["values_flat"]
        values = [
            flat[offsets[i] : offsets[i + 1]] for i in range(len(offsets) - 1)
        ]
        initial_image = dict(
            zip(cols["image_addrs"].tolist(), cols["image_vids"].tolist())
        )
        return Trace(
            cols["name"].item().decode(),
            regions,
            cols["cores"],
            cols["addrs"],
            cols["is_write"],
            cols["approx"],
            cols["region_ids"],
            cols["value_ids"],
            cols["gaps"],
            values,
            initial_image,
            int(cols["block_size"]),
        )
