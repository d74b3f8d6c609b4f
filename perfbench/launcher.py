"""Run ``repro serve`` with the serving layers traced.

Usage: ``python3 perfbench/launcher.py OUT.json serve --listen ... --artifact ...``

Wraps the serving layers' public functions at their import sites, then
calls the normal CLI entry point.  When the daemon has shut down, the
per-layer totals are written to ``OUT.json``.
"""

from __future__ import annotations

import json
import sys

from common import import_repro, percentile
from spans import Tracer, layer_totals


def install_layers(tracer: Tracer) -> None:
    from repro.serving import protocol
    from repro.serving.artifact import ColoringArtifact
    from repro.serving.daemon import ColoringDaemon
    from repro.serving.session import ServingSession

    tracer.install(ColoringDaemon, "handle_line", "serving.daemon")
    for name in ("decode_request_line", "parse_request", "encode_response"):
        tracer.install(protocol, name, "serving.protocol")
    tracer.install(ServingSession, "query", "serving.session")
    for name in ("color", "node_colors", "schedule"):
        tracer.install(ColoringArtifact, name, "serving.artifact.read")
    for name in ("insert", "delete"):
        tracer.install(ColoringArtifact, name, "serving.repair")
    # Only journal appends are the journal layer; the full save at
    # shutdown is not.
    full_save = ColoringArtifact.save
    journal_save = tracer.wrap("serving.journal", full_save)

    def save(self, path, *, journal=False, **options):
        chosen = journal_save if journal else full_save
        return chosen(self, path, journal=journal, **options)

    ColoringArtifact.save = save


def summarize(tracer: Tracer) -> dict:
    summary = {}
    for name, totals in layer_totals(tracer.spans).items():
        summary[name] = {
            "calls": totals.calls,
            "self_s": totals.self_s,
            "self_ms_p99": percentile(totals.self_ms, 99),
            "wall_ms_p50": percentile(totals.wall_ms, 50),
            "wall_ms_p99": percentile(totals.wall_ms, 99),
        }
    return summary


def main(argv: list) -> int:
    out, cli_args = argv[0], argv[1:]
    import_repro()
    from repro.cli import main as repro_main

    tracer = Tracer()
    install_layers(tracer)
    code = repro_main(cli_args)
    with open(out, "w", encoding="utf-8") as handle:
        json.dump(summarize(tracer), handle)
    return code


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
