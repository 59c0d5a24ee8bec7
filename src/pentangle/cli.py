"""Command line front end for the verification suites.

Two subcommands: run executes suites and emits a report, report
re-renders a saved JSON report.  Exit status of run is 0 only when no
claim failed (soft failures count under --strict), so the command wires
directly into CI.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import click

from . import report as report_mod


@click.group()
def main() -> None:
    """Exact and prime-field certification of a determinantal quintic
    threefold, its curve of Moore matrices, and the inverse Cremona
    transformation."""


def _parse_a_values(raw: tuple[str, ...]):
    if not raw or "auto" in raw:
        if len(raw) > 1:
            raise click.UsageError("--a auto cannot be mixed with numbers")
        return "auto"
    try:
        return tuple(int(a) for a in raw)
    except ValueError as exc:
        raise click.UsageError("--a takes integers or 'auto': %s" % exc)


@main.command(name="run")
@click.option("--suites", default="all", show_default=True,
              help="comma separated suite names, or 'all'; known: "
                   + ", ".join(report_mod.SUITE_ORDER))
@click.option("--prime", "primes", multiple=True, type=int,
              default=(31, 61), show_default=True,
              help="prime field to certify over (repeatable)")
@click.option("--a", "a_values", multiple=True, default=("auto",),
              show_default=True,
              help="curve modulus (repeatable), or 'auto' for the first "
                   "two admissible residues per prime")
@click.option("--seed", type=int, default=42, show_default=True,
              help="run seed; every suite derives its own stream from it")
@click.option("--symbolic-a/--no-symbolic-a", default=True,
              show_default=True,
              help="also certify the matrix identities over the rational "
                   "function field in the modulus")
@click.option("--cache-dir", envvar="PENTANGLE_CACHE_DIR", default=None,
              type=click.Path(file_okay=False),
              help="directory for curve point caches "
                   "(env: PENTANGLE_CACHE_DIR)")
@click.option("--report", "report_path", default=None,
              type=click.Path(dir_okay=False, writable=True),
              help="write the rendered report to this file")
@click.option("--format", "fmt", default="json", show_default=True,
              type=click.Choice(report_mod.REPORT_FORMATS),
              help="report rendering")
@click.option("--strict", is_flag=True,
              help="treat soft (statistical envelope) failures as failures")
def run_command(suites, primes, a_values, seed, symbolic_a, cache_dir,
                report_path, fmt, strict) -> None:
    """Execute verification suites and report every claim."""
    if "," in suites:
        suites = tuple(s.strip() for s in suites.split(",") if s.strip())
    try:
        config = report_mod.make_config(
            primes=primes, a_values=_parse_a_values(a_values), seed=seed,
            symbolic_a=symbolic_a, suites=suites, cache_dir=cache_dir,
            report_format=fmt)
        report = report_mod.run(config)
    except ValueError as exc:
        raise click.UsageError(str(exc))
    text = report_mod.render_report(report, fmt)
    summary = report["summary"]
    if report_path:
        Path(report_path).write_text(text, encoding="utf-8")
        click.echo("%d claims: %d passed, %d soft passed, %d failed, "
                   "%d soft failed; report written to %s"
                   % (summary["total"], summary["pass"],
                      summary["soft-pass"], summary["fail"],
                      summary["soft-fail"], report_path))
    else:
        click.echo(text, nl=False)
    sys.exit(report_mod.exit_status(report, strict=strict))


@main.command(name="report")
@click.option("--format", "fmt", default="markdown", show_default=True,
              type=click.Choice(report_mod.REPORT_FORMATS),
              help="target rendering")
@click.argument("path", type=click.Path(exists=True, dir_okay=False))
def report_command(fmt, path) -> None:
    """Re-render a JSON report produced by run."""
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise click.UsageError("%s is not a JSON report: %s" % (path, exc))
    if not isinstance(data, dict):
        raise click.UsageError("%s is not a JSON report: its body is a %s"
                               % (path, type(data).__name__))
    missing = {"version", "config", "claims", "summary"}.difference(data)
    if missing:
        raise click.UsageError("%s lacks report keys: %s"
                               % (path, sorted(missing)))
    # the markdown rendering reads every field a report must have, so it
    # validates the body whatever the target format
    try:
        text = report_mod.render_report(data, "markdown")
    except (KeyError, TypeError) as exc:
        raise click.UsageError("%s is a malformed report: %s %s"
                               % (path, type(exc).__name__, exc))
    if fmt != "markdown":
        text = report_mod.render_report(data, fmt)
    click.echo(text, nl=False)


if __name__ == "__main__":
    main()
