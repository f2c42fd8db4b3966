"""Command-line front-end: fidelity queries, parameter sweeps with CSV/SVG
output, certification-suite runs, and POVM dumps."""

from __future__ import annotations

import json
import sys

import click

from portclone.channels import PROTOCOLS, FidelityReport, protocol_fidelity
from portclone.cloning import optimal_clone_fidelity
from portclone.measurements import clone_mpbt_povm, povm_to_json_dict, std_pbtc_povm
from portclone.verification import run_suite, suite_passed

SWEEP_PROTOCOLS = tuple(p for p in PROTOCOLS if p != "clone")


def _fmt(x: float) -> str:
    return f"{x:.12g}"


@click.group()
def main():
    """Port-based telecloning simulator."""


@main.command()
@click.option("--protocol", required=True,
              type=click.Choice(PROTOCOLS))
@click.option("--d", "d", type=int, default=2, show_default=True)
@click.option("--N", "n", type=int, default=None, help="Number of ports (not used by 'clone').")
@click.option("--M", "m", type=int, default=1, show_default=True)
def fidelity(protocol, d, n, m):
    """Evaluate one protocol at one parameter point and print a JSON report."""
    if protocol != "clone" and n is None:
        raise click.UsageError("--N is required for port-based protocols")
    try:
        report = protocol_fidelity(protocol, d, n if n is not None else 0, m)
    except ValueError as exc:
        raise click.ClickException(str(exc))
    click.echo(json.dumps(report.to_json_dict(), indent=2))


def _parse_range(spec: str) -> list[int]:
    lo, sep, hi = spec.partition(":")
    try:
        return list(range(int(lo), int(hi) + 1)) if sep else [int(spec)]
    except ValueError:
        raise click.UsageError(f"N range {spec!r} is neither lo:hi nor a single N")


def _write_csv(path: str, reports: list[FidelityReport]):
    """One row per report: its JSON fields but per_clone_f, runtime_ms last."""
    rows = [r.to_json_dict() for r in reports]
    for row in rows:
        del row["per_clone_f"]
        row["runtime_ms"] = row.pop("runtime_ms")
    lines = [",".join(rows[0])] + [
        ",".join(_fmt(v) if isinstance(v, float) else str(v) for v in row.values())
        for row in rows
    ]
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def _write_svg(path: str, reports: list[FidelityReport], d: int, m: int):
    """Minimal static line chart: one polyline per protocol plus the
    asymptotic single-clone fidelity as a horizontal reference line."""
    width, height = 640, 440
    margin = 60
    asymptote = optimal_clone_fidelity(m, d)
    by_protocol: dict[str, list[FidelityReport]] = {}
    for r in reports:
        by_protocol.setdefault(r.protocol, []).append(r)
    all_n = sorted({r.N for r in reports})
    all_f = [r.f for r in reports] + [asymptote]
    f_lo, f_hi = min(all_f), max(all_f)
    pad = max((f_hi - f_lo) * 0.1, 1e-3)
    f_lo, f_hi = f_lo - pad, f_hi + pad
    n_lo, n_hi = min(all_n), max(all_n)

    def sx(n):
        span = max(n_hi - n_lo, 1)
        return margin + (n - n_lo) / span * (width - 2 * margin)

    def sy(f):
        return height - margin - (f - f_lo) / (f_hi - f_lo) * (height - 2 * margin)

    colors = {"std-pbtc": "#1f77b4", "clone-mpbt": "#d62728",
              "std-pbt": "#2ca02c", "mpbt": "#9467bd"}
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
        f"<metadata>{json.dumps({'asymptote': asymptote, 'd': d, 'M': m})}</metadata>",
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<line x1="{margin}" y1="{height - margin}" x2="{width - margin}" '
        f'y2="{height - margin}" stroke="black"/>',
        f'<line x1="{margin}" y1="{margin}" x2="{margin}" '
        f'y2="{height - margin}" stroke="black"/>',
        f'<line x1="{margin}" y1="{sy(asymptote):.2f}" x2="{width - margin}" '
        f'y2="{sy(asymptote):.2f}" stroke="gray" stroke-dasharray="6 4"/>',
        f'<text x="{width - margin}" y="{sy(asymptote) - 6:.2f}" text-anchor="end" '
        f'font-size="12" fill="gray">asymptote {_fmt(asymptote)}</text>',
        f'<text x="{width / 2}" y="{height - 16}" text-anchor="middle" '
        f'font-size="13">number of ports N</text>',
        f'<text x="18" y="{height / 2}" text-anchor="middle" font-size="13" '
        f'transform="rotate(-90 18 {height / 2})">single-clone fidelity f</text>',
    ]
    for n in all_n:
        parts.append(
            f'<text x="{sx(n):.2f}" y="{height - margin + 18}" text-anchor="middle" '
            f'font-size="11">{n}</text>'
        )
    legend_y = margin
    for proto, rs in sorted(by_protocol.items()):
        rs = sorted(rs, key=lambda r: r.N)
        color = colors.get(proto, "#333333")
        pts = " ".join(f"{sx(r.N):.2f},{sy(r.f):.2f}" for r in rs)
        parts.append(f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="2"/>')
        for r in rs:
            parts.append(f'<circle cx="{sx(r.N):.2f}" cy="{sy(r.f):.2f}" r="3" fill="{color}"/>')
        parts.append(
            f'<text x="{width - margin - 4}" y="{legend_y}" text-anchor="end" '
            f'font-size="12" fill="{color}">{proto}</text>'
        )
        legend_y += 16
    parts.append("</svg>")
    with open(path, "w") as fh:
        fh.write("\n".join(parts) + "\n")


@main.command()
@click.option("--protocols", default="std-pbtc,clone-mpbt", show_default=True,
              help="Comma-separated subset of " + ",".join(SWEEP_PROTOCOLS))
@click.option("--d", "d", type=int, default=2, show_default=True)
@click.option("--M", "m", type=int, default=2, show_default=True)
@click.option("--N-range", "n_range", default="2:6", show_default=True,
              help="Inclusive range lo:hi, or a single N.")
@click.option("--csv", "csv_path", required=True, type=click.Path(dir_okay=False))
@click.option("--svg", "svg_path", default=None, type=click.Path(dir_okay=False))
def sweep(protocols, d, m, n_range, csv_path, svg_path):
    """Sweep fidelities over a range of port counts; write CSV and optional SVG."""
    # each named protocol runs once, however often it is named
    protos = sorted({p.strip() for p in protocols.split(",") if p.strip()})
    if not protos:
        raise click.UsageError("--protocols names no protocol")
    for p in protos:
        if p not in SWEEP_PROTOCOLS:
            raise click.UsageError(f"unknown protocol {p!r}")
    n_values = _parse_range(n_range)
    if not n_values:
        raise click.UsageError(f"N range {n_range!r} is empty")
    # std-pbt always runs with M=1
    eff_m = {p: 1 if p == "std-pbt" else m for p in protos}
    if min(n_values) < max(eff_m.values()):
        raise click.UsageError(f"N range must start at or above M={max(eff_m.values())}")
    try:
        reports = [
            protocol_fidelity(p, d, n, eff_m[p]) for p in protos for n in n_values
        ]
    except ValueError as exc:
        raise click.ClickException(str(exc))
    try:
        _write_csv(csv_path, reports)
        if svg_path:
            _write_svg(svg_path, reports, d, max(eff_m.values()))
    except OSError as exc:
        raise click.ClickException(f"cannot write output: {exc}")
    click.echo(f"wrote {len(reports)} rows to {csv_path}")


@main.command()
@click.option("--d", "d", type=int, default=2, show_default=True)
@click.option("--N", "n", type=int, required=True)
@click.option("--M", "m", type=int, required=True)
@click.option("--json", "json_path", default=None, type=click.Path(dir_okay=False))
@click.option("--inject-fault", is_flag=True,
              help="Corrupt one PGM element to prove the checks can fail.")
def verify(d, n, m, json_path, inject_fault):
    """Run the certification suite; exit nonzero if any exact check fails."""
    if m > n:
        raise click.UsageError(f"M={m} exceeds N={n}")
    try:
        results = run_suite(d, n, m, inject_fault=inject_fault)
    except ValueError as exc:
        raise click.ClickException(str(exc))
    name_w = max(len(r.name) for r in results)
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        click.echo(
            f"{status}  {r.name:<{name_w}}  deviation={r.deviation:.3e}  "
            f"threshold={r.threshold:.1e}  {r.notes}"
        )
    if json_path:
        try:
            with open(json_path, "w") as fh:
                json.dump([r.to_json_dict() for r in results], fh, indent=2)
        except OSError as exc:
            raise click.ClickException(f"cannot write output: {exc}")
    if not suite_passed(results):
        failing = [r.name for r in results if not r.passed]
        click.echo(f"failing checks: {', '.join(failing)}", err=True)
        sys.exit(1)


@main.command("povm-dump")
@click.option("--protocol", required=True, type=click.Choice(["std-pbtc", "clone-mpbt"]))
@click.option("--d", "d", type=int, default=2, show_default=True)
@click.option("--N", "n", type=int, required=True)
@click.option("--M", "m", type=int, required=True)
@click.option("--out", "out_path", required=True, type=click.Path(dir_okay=False))
def povm_dump(protocol, d, n, m, out_path):
    """Dump a completed POVM as JSON for debugging or cross-language comparison."""
    try:
        builder = std_pbtc_povm if protocol == "std-pbtc" else clone_mpbt_povm
        povm = builder(n, m, d)
    except ValueError as exc:
        raise click.ClickException(str(exc))
    try:
        with open(out_path, "w") as fh:
            json.dump(povm_to_json_dict(povm), fh)
    except OSError as exc:
        raise click.ClickException(f"cannot write output: {exc}")
    click.echo(f"wrote {len(povm)} outcomes to {out_path}")


if __name__ == "__main__":
    main()
