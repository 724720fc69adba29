"""The report CSV format, both ways, and deterministic SVG bar/line charts
of the reports (no matplotlib: byte-identical output for identical input is
part of the contract). It imports nothing from stlab, so any module may
write reports.

The charts are one table, CHARTS, keyed by a report's first header columns
(see there). Bars keep the order in which the rows first name their labels.
A row that lacks a column its chart reads, or a plotted cell that is not a
number, raises MalformedCsvError naming the file and the line."""

from __future__ import annotations

W, H = 640, 400
MARGIN_L, MARGIN_R, MARGIN_T, MARGIN_B = 70, 20, 40, 60
BOX = (MARGIN_L, H - MARGIN_B, W - MARGIN_R, MARGIN_T)  # plot area: x0, y0 (bottom), x1, y1
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
    x0, y0, x1, y1 = BOX
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
    x0, y0, x1, y1 = BOX
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
    x0, y0, x1, y1 = BOX
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


def write_csv(path, header, rows):
    """A header line, then one comma-joined line per row: a float cell with
    17 significant digits, so it reads back equal, any other as its str."""
    with open(path, "w") as fh:
        for row in [header, *rows]:
            fh.write(",".join(f"{c:.17g}" if isinstance(c, float) else str(c)
                              for c in row) + "\n")
    return path


def read_csv(path):
    """The header, and {line number: {column: cell}} for each non-blank line
    after it, cells as strings; raises MalformedCsvError with the line number."""
    with open(path) as fh:
        lines = [ln.rstrip("\n") for ln in fh]
    if not lines:
        raise MalformedCsvError(path, 1, "empty file")
    header = lines[0].split(",")
    rows = {}
    for i, ln in enumerate(lines[1:], start=2):
        if not ln:
            continue
        cells = ln.split(",")
        if len(cells) != len(header):
            raise MalformedCsvError(path, i, f"expected {len(header)} cells, got {len(cells)}")
        rows[i] = dict(zip(header, cells))
    return header, rows


def _module(row):
    """A consistency row's bar label: partition/layer, or partition alone."""
    layer = row["layer"]
    return row["partition"] if layer in ("", "None") else f'{row["partition"]}/{layer}'


def _number(cell):
    """The cell as it is, once it reads as a number."""
    float(cell)
    return cell


# first header columns -> (title, y label, x label, or "" for bars,
# row -> (series, x value or bar label), the column that holds y)
CHARTS = {
    ("step", "task"): ("Task weights", "weight", "step",
                       lambda r: (r["task"], float(r["step"])), "w"),
    ("partition", "kind"): ("Gradient consistency", "cosine", "",
                            lambda r: (r["kind"], _module(r)), "mean"),
    ("variant", "partition", "kind"): ("Gradient consistency", "cosine", "",
                                       lambda r: (f'{r["variant"]}:{r["kind"]}', _module(r)),
                                       "mean"),
    ("layer", "stream"): ("Attention entropy", "bits", "",
                          lambda r: (r["stream"], _number(r["layer"])), "entropy_bits"),
    ("step", "batch"): ("Shrink length ratio", "ratio", "batch",
                        lambda r: ("ratio", float(r["step"]) + float(r["batch"])), "ratio"),
    ("step", "partition"): ("Consistency over training", "cosine", "step",
                            lambda r: (f'{r["partition"]}/{r["kind"]}', float(r["step"])),
                            "mean"),
}


def export_plot(csv_path) -> str:
    """The SVG chart of a report CSV, chosen by its first header columns."""
    header, rows = read_csv(csv_path)
    kind = next((k for k in CHARTS if tuple(header[:len(k)]) == k), None)
    if kind is None:
        raise MalformedCsvError(csv_path, 1, f"unrecognized report header {header}")
    title, ylabel, xlabel, point, y_column = CHARTS[kind]
    points = []  # (series, x or bar label, y), in row order
    for line_no, row in rows.items():
        try:
            points.append((*point(row), float(row[y_column])))
        except (KeyError, ValueError) as exc:  # a missing column or a cell that is no number
            raise MalformedCsvError(csv_path, line_no, f"cannot plot this row: {exc!r}") from exc
    series = {}
    for name, x, y in points:
        series.setdefault(name, []).append((x, y))
    if xlabel:
        return line_chart_svg(series, title=title, xlabel=xlabel, ylabel=ylabel)
    labels = list(dict.fromkeys(label for _, label, _ in points))
    bars = {name: dict(pts) for name, pts in series.items()}  # a label's last row wins
    return bar_chart_svg(labels, {name: [v.get(label, 0.0) for label in labels]
                                  for name, v in bars.items()}, title=title, ylabel=ylabel)
