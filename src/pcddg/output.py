"""Run outputs: every CSV file (write_csv), legacy ASCII VTK snapshots, SVG
line plots and the JSON run manifest, each written atomically."""

import dataclasses
import json
import os
import tempfile
from dataclasses import dataclass, field

import numpy as np

from .refelem import ConfigurationError


@dataclass
class RunManifest:
    command: str
    config_hash: str
    mesh_hash: str
    code_version: str
    status: str = "ok"                 # "ok", or "failed" with extra.error
    wall_time_s: float = 0.0
    em_steps: int = 0
    dd_steps: int = 0
    cfl: dict = field(default_factory=dict)
    extra: dict = field(default_factory=dict)


def _atomic_write(path, text):
    d = os.path.dirname(os.path.abspath(path))
    os.makedirs(d, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=d, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_manifest(path, manifest):
    _atomic_write(path, json.dumps(dataclasses.asdict(manifest),
                                   indent=2, sort_keys=True) + "\n")


def write_csv(path, header, rows):
    """A header line of column names, then one line per row: strings as
    they are, numbers as .17g."""
    lines = [",".join(header)]
    lines += [",".join(v if isinstance(v, str) else format(v, ".17g")
                       for v in row) for row in rows]
    _atomic_write(path, "\n".join(lines) + "\n")


def write_probe_csv(path, times, columns):
    """columns: ordered dict of probe name -> sequence; header t,<names>."""
    names = list(columns)
    cols = [np.asarray(columns[n], dtype=float) for n in names]
    write_csv(path, ["t"] + names, zip(map(float, times), *cols))


def write_spectrum_csv(path, times, current):
    """DFT magnitude of a uniformly sampled current trace -> f,|I|,Re,Im."""
    t = np.asarray(times, dtype=float)
    y = np.asarray(current, dtype=float)
    if t.size < 2:
        raise ConfigurationError("spectrum needs at least two samples")
    dt = np.diff(t)
    if not np.allclose(dt, dt[0], rtol=1e-9, atol=0.0):
        raise ConfigurationError("spectrum needs uniformly spaced samples")
    spec = np.fft.rfft(y) * dt[0]
    freq = np.fft.rfftfreq(t.size, dt[0])
    write_csv(path, ["f", "abs", "real", "imag"],
              ((f, abs(z), z.real, z.imag) for f, z in zip(freq, spec)))


def write_vtk(path, disc, point_data):
    """Legacy ASCII VTK unstructured grid of the nodal point cloud.

    point_data maps an array name to either a (K, Np) scalar field or a
    tuple of components (padded to 3-vectors).
    """
    pts = disc.x.reshape(-1, disc.x.shape[-1])
    npts = pts.shape[0]
    xyz = np.zeros((npts, 3))
    xyz[:, :pts.shape[1]] = pts
    out = ["# vtk DataFile Version 3.0", "pcddg field snapshot", "ASCII",
           "DATASET UNSTRUCTURED_GRID", f"POINTS {npts} double"]
    for p in xyz:
        out.append(" ".join(format(v, ".17g") for v in p))
    out.append(f"CELLS {npts} {2 * npts}")
    out.extend(f"1 {i}" for i in range(npts))
    out.append(f"CELL_TYPES {npts}")
    out.extend("1" for _ in range(npts))
    out.append(f"POINT_DATA {npts}")
    for name, data in point_data.items():
        if isinstance(data, (tuple, list)):
            comps = [np.asarray(c, dtype=float).reshape(-1) for c in data]
            while len(comps) < 3:
                comps.append(np.zeros(npts))
            out.append(f"VECTORS {name} double")
            for row in zip(*comps):
                out.append(" ".join(format(v, ".17g") for v in row))
        else:
            arr = np.asarray(data, dtype=float).reshape(-1)
            out.append(f"SCALARS {name} double 1")
            out.append("LOOKUP_TABLE default")
            out.extend(format(v, ".17g") for v in arr)
    _atomic_write(path, "\n".join(out) + "\n")


def write_svg_lineplot(path, x, ys, title=""):
    """Minimal dependency-free SVG line plot; ys maps label -> values."""
    x = np.asarray(x, dtype=float)
    width, height, pad = 640, 400, 40
    xmin, xmax = float(x.min()), float(x.max())
    allv = np.concatenate([np.asarray(v, dtype=float) for v in ys.values()])
    ymin, ymax = float(allv.min()), float(allv.max())
    if xmax == xmin:
        xmax = xmin + 1.0
    if ymax == ymin:
        ymax = ymin + 1.0

    def sx(v):
        return pad + (v - xmin) / (xmax - xmin) * (width - 2 * pad)

    def sy(v):
        return height - pad - (v - ymin) / (ymax - ymin) * (height - 2 * pad)

    colors = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e")
    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
             f'height="{height}">',
             f'<rect width="{width}" height="{height}" fill="white"/>',
             f'<text x="{width // 2}" y="20" text-anchor="middle">{title}</text>']
    for i, (label, v) in enumerate(ys.items()):
        v = np.asarray(v, dtype=float)
        d = " ".join(f"{sx(a):.2f},{sy(b):.2f}" for a, b in zip(x, v))
        c = colors[i % len(colors)]
        parts.append(f'<polyline points="{d}" fill="none" stroke="{c}"/>')
        parts.append(f'<text x="{pad}" y="{pad + 15 * i}" fill="{c}" '
                     f'font-size="12">{label}</text>')
    parts.append("</svg>")
    _atomic_write(path, "\n".join(parts) + "\n")
