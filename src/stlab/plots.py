"""The report CSV format, both ways, and deterministic SVG bar/line charts
of the reports (no matplotlib: byte-identical output for identical input is
part of the contract). It imports nothing from stlab, so any module may
write reports."""

from __future__ import annotations

W, H = 640, 400
MARGIN_L, MARGIN_R, MARGIN_T, MARGIN_B = 70, 20, 40, 60
PALETTE = ("#4878b0", "#d65f5f", "#59a14f", "#b07aa1", "#e49444", "#76b7b2")


def _fmt(x: float) -> str:
    return f"{x:.3f}".rstrip("0").rstrip(".") or "0"


def _header(title):
    return [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{W}" height="{H}" '
        f'viewBox="0 0 {W} {H}">',
        f'<rect width="{W}" height="{H}" fill="white"/>',
        f'<text x="{W / 2}" y="24" text-anchor="middle" font-family="sans-serif" '
        f'font-size="16">{title}</text>',
    ]


def _axes(ylabel, xlabel=""):
    x0, y0 = MARGIN_L, H - MARGIN_B
    x1, y1 = W - MARGIN_R, MARGIN_T
    parts = [
        f'<line x1="{x0}" y1="{y0}" x2="{x1}" y2="{y0}" stroke="black"/>',
        f'<line x1="{x0}" y1="{y0}" x2="{x0}" y2="{y1}" stroke="black"/>',
        f'<text x="18" y="{(y0 + y1) / 2}" text-anchor="middle" font-family="sans-serif" '
        f'font-size="12" transform="rotate(-90 18 {(y0 + y1) / 2})">{ylabel}</text>',
    ]
    if xlabel:
        parts.append(f'<text x="{(x0 + x1) / 2}" y="{H - 12}" text-anchor="middle" '
                     f'font-family="sans-serif" font-size="12">{xlabel}</text>')
    return parts


def _scale(vmin, vmax):
    if vmin == vmax:
        vmin, vmax = vmin - 1.0, vmax + 1.0
    return vmin, vmax


def bar_chart_svg(labels, series: dict, title="", ylabel="value") -> str:
    """Grouped bars. labels: category names; series: {name: [value per label]}."""
    parts = _header(title) + _axes(ylabel)
    x0, y0 = MARGIN_L, H - MARGIN_B
    x1, y1 = W - MARGIN_R, MARGIN_T
    if labels and series:
        all_vals = [v for vals in series.values() for v in vals]
        lo, hi = _scale(min(0.0, min(all_vals)), max(0.0, max(all_vals)))
        span = hi - lo
        n_groups, n_series = len(labels), len(series)
        group_w = (x1 - x0) / n_groups
        bar_w = group_w * 0.8 / n_series

        def ypix(v):
            return y0 - (v - lo) / span * (y0 - y1)

        for si, (name, vals) in enumerate(sorted(series.items())):
            color = PALETTE[si % len(PALETTE)]
            for gi, v in enumerate(vals):
                bx = x0 + gi * group_w + group_w * 0.1 + si * bar_w
                top, bot = sorted((ypix(v), ypix(0.0)))
                parts.append(
                    f'<rect x="{_fmt(bx)}" y="{_fmt(top)}" width="{_fmt(bar_w)}" '
                    f'height="{_fmt(bot - top)}" fill="{color}"/>')
            parts.append(
                f'<text x="{x1 - 100}" y="{y1 + 14 + 14 * si}" font-family="sans-serif" '
                f'font-size="11" fill="{color}">{name}</text>')
        for gi, lab in enumerate(labels):
            cx = x0 + (gi + 0.5) * group_w
            parts.append(f'<text x="{_fmt(cx)}" y="{y0 + 16}" text-anchor="middle" '
                         f'font-family="sans-serif" font-size="11">{lab}</text>')
        for frac in (0.0, 0.5, 1.0):
            v = lo + frac * span
            parts.append(f'<text x="{x0 - 6}" y="{_fmt(ypix(v) + 4)}" text-anchor="end" '
                         f'font-family="sans-serif" font-size="10">{_fmt(v)}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def line_chart_svg(series: dict, title="", xlabel="x", ylabel="y") -> str:
    """series: {name: [(x, y), ...]}."""
    parts = _header(title) + _axes(ylabel, xlabel)
    x0, y0 = MARGIN_L, H - MARGIN_B
    x1, y1 = W - MARGIN_R, MARGIN_T
    points = [(x, y) for pts in series.values() for x, y in pts]
    if points:
        xs, ys = zip(*points)
        xlo, xhi = _scale(min(xs), max(xs))
        ylo, yhi = _scale(min(ys), max(ys))

        def pix(x, y):
            px = x0 + (x - xlo) / (xhi - xlo) * (x1 - x0)
            py = y0 - (y - ylo) / (yhi - ylo) * (y0 - y1)
            return _fmt(px), _fmt(py)

        for si, (name, pts) in enumerate(sorted(series.items())):
            color = PALETTE[si % len(PALETTE)]
            coords = " ".join(",".join(pix(x, y)) for x, y in sorted(pts))
            parts.append(f'<polyline points="{coords}" fill="none" stroke="{color}" '
                         f'stroke-width="1.5"/>')
            parts.append(
                f'<text x="{x1 - 100}" y="{y1 + 14 + 14 * si}" font-family="sans-serif" '
                f'font-size="11" fill="{color}">{name}</text>')
        for frac in (0.0, 0.5, 1.0):
            vx = xlo + frac * (xhi - xlo)
            vy = ylo + frac * (yhi - ylo)
            px, _ = pix(vx, ylo)
            _, py = pix(xlo, vy)
            parts.append(f'<text x="{px}" y="{y0 + 16}" text-anchor="middle" '
                         f'font-family="sans-serif" font-size="10">{_fmt(vx)}</text>')
            parts.append(f'<text x="{x0 - 6}" y="{_fmt(float(py) + 4)}" text-anchor="end" '
                         f'font-family="sans-serif" font-size="10">{_fmt(vy)}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


class MalformedCsvError(ValueError):
    def __init__(self, path, line_no, message):
        super().__init__(f"{path}:{line_no}: {message}")
        self.line_no = line_no


def write_csv(path, header, rows):
    """A header line, then one comma-joined line per row: a float cell with
    17 significant digits, so it reads back equal, any other as its str."""
    with open(path, "w") as fh:
        for row in [header, *rows]:
            fh.write(",".join(f"{c:.17g}" if isinstance(c, float) else str(c)
                              for c in row) + "\n")
    return path


def read_csv(path):
    """Header + float-or-string rows; raises MalformedCsvError with line number."""
    with open(path) as fh:
        lines = [ln.rstrip("\n") for ln in fh]
    if not lines:
        raise MalformedCsvError(path, 1, "empty file")
    header = lines[0].split(",")
    rows = []
    for i, ln in enumerate(lines[1:], start=2):
        if not ln:
            continue
        cells = ln.split(",")
        if len(cells) != len(header):
            raise MalformedCsvError(path, i, f"expected {len(header)} cells, got {len(cells)}")
        rows.append(dict(zip(header, cells)))
    return header, rows


def _float(row, key, path, line_no):
    try:
        return float(row[key])
    except ValueError as exc:
        raise MalformedCsvError(path, line_no, f"bad float in {key!r}") from exc


def export_plot(csv_path, out_path):
    """Dispatch a report CSV to the matching chart by its header."""
    header, rows = read_csv(csv_path)
    if header[:2] == ["step", "task"]:          # weight history
        series = {}
        for i, r in enumerate(rows, start=2):
            series.setdefault(r["task"], []).append(
                (_float(r, "step", csv_path, i), _float(r, "w", csv_path, i)))
        svg = line_chart_svg(series, title="Task weights", xlabel="step", ylabel="weight")
    elif header[:2] == ["partition", "kind"] or header[:3] == ["variant", "partition", "kind"]:
        # consistency report, optionally tagged with a probe variant column
        labels = sorted({f'{r["partition"]}/{r["layer"]}' if r["layer"] not in ("", "None")
                         else r["partition"] for r in rows})
        series = {}
        for i, r in enumerate(rows, start=2):
            lab = (f'{r["partition"]}/{r["layer"]}'
                   if r["layer"] not in ("", "None") else r["partition"])
            name = f'{r["variant"]}:{r["kind"]}' if "variant" in r else r["kind"]
            vals = series.setdefault(name, {l: 0.0 for l in labels})
            vals[lab] = _float(r, "mean", csv_path, i)
        series = {k: [v[l] for l in labels] for k, v in series.items()}
        svg = bar_chart_svg(labels, series, title="Gradient consistency", ylabel="cosine")
    elif header[:2] == ["layer", "stream"]:     # entropy report
        labels = sorted({r["layer"] for r in rows}, key=float)
        series = {}
        for i, r in enumerate(rows, start=2):
            vals = series.setdefault(r["stream"], {l: 0.0 for l in labels})
            vals[r["layer"]] = _float(r, "entropy_bits", csv_path, i)
        series = {k: [v[l] for l in labels] for k, v in series.items()}
        svg = bar_chart_svg(labels, series, title="Attention entropy", ylabel="bits")
    elif header[:2] == ["step", "batch"]:       # shrink-eval
        series = {"ratio": [(_float(r, "step", csv_path, i) + _float(r, "batch", csv_path, i),
                             _float(r, "ratio", csv_path, i))
                            for i, r in enumerate(rows, start=2)]}
        svg = line_chart_svg(series, title="Shrink length ratio", xlabel="batch",
                             ylabel="ratio")
    elif header[:2] == ["step", "partition"]:   # consistency-over-training series
        series = {}
        for i, r in enumerate(rows, start=2):
            key = f'{r["partition"]}/{r["kind"]}'
            series.setdefault(key, []).append(
                (_float(r, "step", csv_path, i), _float(r, "mean", csv_path, i)))
        svg = line_chart_svg(series, title="Consistency over training", xlabel="step",
                             ylabel="cosine")
    else:
        raise MalformedCsvError(csv_path, 1, f"unrecognized report header {header}")
    with open(out_path, "w") as fh:
        fh.write(svg)
