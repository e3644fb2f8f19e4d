"""The ``/dashboard`` page: a self-contained, script-free live view.

One GET renders the server's current state — rolling-window request
rate, windowed tail latency, error rate, SLO burn rates and the
recent/slowest request boards — as a single HTML page with inline-SVG
charts.  Everything is rendered server-side from
:class:`repro.serve.stats.ServiceTelemetry`; there is **no**
JavaScript, no external asset and no auto-refresh magic (operators
reload, or ``watch curl``), so the page works from an air-gapped
browser and can be archived as-is.  Charts reuse the
:mod:`repro.obs.htmlreport` SVG helpers, so the dashboard matches the
fit reports' look.
"""

from __future__ import annotations

import html as _html

from repro import obs
from repro.obs import names
from repro.obs.htmlreport import line_chart

_CSS = """
body { font-family: Georgia, 'Times New Roman', serif; margin: 2em auto;
       max-width: 64em; color: #2c3e50; background: #fcfcfa; }
h1 { font-size: 1.5em; border-bottom: 2px solid #2c3e50; }
h2 { font-size: 1.2em; margin-top: 2em; }
.charts { display: flex; flex-wrap: wrap; gap: 1em; }
figure { margin: 0; border: 1px solid #d7dde2; background: #fff;
         padding: .4em; }
figcaption { font-size: .82em; text-align: center; padding-top: .3em; }
.tiles { display: flex; flex-wrap: wrap; gap: 1em; margin: 1em 0; }
.tile { border: 1px solid #d7dde2; background: #fff; padding: .5em 1em;
        min-width: 9em; }
.tile .value { font-size: 1.4em; font-weight: bold; }
.tile .label { font-size: .8em; color: #667; }
.ok { color: #1e8449; }
.degraded { color: #c0392b; }
table.kv { border-collapse: collapse; font-size: .9em; }
table.kv td, table.kv th { border: 1px solid #d7dde2; padding: .2em .6em;
                           text-align: right; }
table.kv th { background: #eef2f4; }
table.kv td.id { font-family: monospace; text-align: left; }
p.meta { font-size: .85em; color: #667; }
"""


def _esc(text) -> str:
    return _html.escape(str(text), quote=True)


def _ms(seconds) -> str:
    if seconds is None:
        return "–"
    return f"{seconds * 1e3:.2f} ms"


def _tile(label: str, value: str, css: str = "") -> str:
    cls = f"value {css}".strip()
    return (f'<div class="tile"><div class="{cls}">{value}</div>'
            f'<div class="label">{_esc(label)}</div></div>')


def _tiles(stats, slo: dict, uptime_s: float) -> str:
    fast = stats.windows_payload()["fast"]
    requests = fast[names.WINDOW_REQUESTS]
    errors = fast[names.WINDOW_ERRORS]
    latency = fast[names.WINDOW_LATENCY_SECONDS]
    status = slo["status"]
    tiles = [
        _tile("SLO status", _esc(status), css=status),
        _tile("uptime", f"{uptime_s:.0f} s"),
        _tile("requests / 60 s", str(requests["total"])),
        _tile("rate", f'{requests["rate_per_s"]:.1f}/s'),
        _tile("error rate / 60 s", f'{errors["error_rate"] * 100:.2f}%'),
        _tile("p50 / 60 s", _ms(latency["p50"])),
        _tile("p99 / 60 s", _ms(latency["p99"])),
    ]
    return '<div class="tiles">' + "".join(tiles) + "</div>"


def _charts(stats) -> str:
    xs_fast = list(range(-59, 1))
    rate_fast = stats.fast.series()
    error_fast = stats.fast.error_series()
    p99s = [0.0 if q is None else q * 1e3
            for q in stats.fast.bucket_quantiles(0.99)]
    xs_slow = list(range(-59, 1))
    rate_slow = [v / 60.0 for v in stats.slow.series()]
    charts = [
        line_chart(
            "Request rate (last 60 s)", xs_fast,
            [("requests/s", rate_fast, "#1f6f8b"),
             ("errors/s", error_fast, "#c0392b")],
            "seconds ago", "requests / s",
            "Per-second request and 5xx counts over the fast window."),
        line_chart(
            "Tail latency (last 60 s)", xs_fast,
            [("p99 ms", p99s, "#e67e22")],
            "seconds ago", "p99 (ms)",
            "Per-second p99 from the windowed power-of-two bins; empty "
            "seconds plot as zero."),
        line_chart(
            "Request rate (last hour)", xs_slow,
            [("requests/s", rate_slow, "#1f6f8b")],
            "minutes ago", "requests / s",
            "Per-minute mean rate over the slow window."),
    ]
    return '<div class="charts">' + "".join(charts) + "</div>"


def _slo_table(slo: dict) -> str:
    rows = ["<table class=\"kv\"><tr><th>objective</th><th>target</th>"
            "<th>status</th><th>burn 1m</th><th>burn 5m</th>"
            "<th>burn 1h</th><th>bad/total 1h</th></tr>"]
    for name, payload in sorted(slo["objectives"].items()):
        win = payload["windows"]
        hour = win["1h"]
        rows.append(
            f'<tr><td class="id">{_esc(name)}</td>'
            f'<td>{payload["target"]:.4g}</td>'
            f'<td class="{payload["status"]}">{_esc(payload["status"])}</td>'
            f'<td>{win["1m"]["burn_rate"]:.2f}</td>'
            f'<td>{win["5m"]["burn_rate"]:.2f}</td>'
            f'<td>{hour["burn_rate"]:.2f}</td>'
            f'<td>{hour["bad"]}/{hour["total"]}</td></tr>')
    rows.append("</table>")
    threshold = slo["fast_burn_threshold"]
    rows.append(f'<p class="meta">degraded = burn rate &ge; {threshold:g} '
                "on both the 1m and 5m windows (fast burn with "
                "confirmation); recovery is the same check relaxing.</p>")
    return "".join(rows)


def _request_table(title: str, entries: list[dict]) -> str:
    rows = [f"<h2>{_esc(title)}</h2>",
            "<table class=\"kv\"><tr><th>request id</th><th>method</th>"
            "<th>path</th><th>status</th><th>duration</th>"
            "<th>spans</th></tr>"]
    for entry in entries:
        spans = _count_spans(entry.get("trace"))
        rows.append(
            f'<tr><td class="id">{_esc(entry["request_id"])}</td>'
            f'<td>{_esc(entry["method"])}</td>'
            f'<td class="id">{_esc(entry["path"])}</td>'
            f'<td>{entry["status"]}</td>'
            f'<td>{_ms(entry["duration_s"])}</td>'
            f'<td>{spans if spans else "–"}</td></tr>')
    if not entries:
        rows.append('<tr><td colspan="6">no requests recorded yet</td></tr>')
    rows.append("</table>")
    return "".join(rows)


def _count_spans(trace: dict | None) -> int:
    if not trace:
        return 0
    return 1 + sum(_count_spans(c) for c in trace.get("children", ()))


def render_dashboard(server) -> str:
    """The full ``/dashboard`` HTML for a running PredictionServer."""
    stats = server.stats
    slo = stats.slo_state()
    telemetry = "enabled" if obs.enabled() else "disabled"
    parts = [
        "<!DOCTYPE html><html><head><meta charset=\"utf-8\">",
        "<title>repro serve dashboard</title>",
        f"<style>{_CSS}</style></head><body>",
        "<h1>repro serve — live dashboard</h1>",
        f'<p class="meta">{_esc(server.url)} · telemetry {telemetry} · '
        "static snapshot, reload for fresh numbers · JSON surfaces: "
        "/metrics /healthz /events /debug/requests</p>",
        _tiles(stats, slo, server.uptime_s),
        _charts(stats),
        "<h2>Service-level objectives</h2>",
        _slo_table(slo),
        _request_table("Slowest requests", stats.request_log.slowest(10)),
        _request_table("Recent requests", stats.request_log.recent(10)),
        "</body></html>",
    ]
    return "".join(parts)


__all__ = ["render_dashboard"]
