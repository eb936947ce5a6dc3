"""Launcher for the program processes the benchmark starts.

    python perfbench/launch.py [--ready FILE] [--spans FILE] -- <repro CLI args>
    python perfbench/launch.py --probe MANIFEST

The first form runs ``python -m repro <args>`` (``serve``, ``worker``) in this
process.  With ``--spans`` it first installs the layer wrappers
(:mod:`layers`) and, once the command returns -- a server after SIGTERM, a
worker after its queue drains -- writes the recorded spans to ``FILE``.
Without it the launcher checks that nothing is wrapped.  ``--ready`` names a
file created once imports are done and just before the command starts.

``--probe`` measures campaign set-up: import the lab stack, load and expand
the campaign manifest, and build every spec's CRN -- the work a campaign does
before its first cell.
"""

from __future__ import annotations

import argparse
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))


def _probe(manifest: str) -> int:
    from repro.core.characterization import build_crn_for
    from repro.lab import cli  # noqa: F401 -- the CLI import is part of set-up
    from repro.lab.campaign import Campaign, resolve_spec

    campaign = Campaign.load(manifest)
    cells = campaign.expand()
    for name, strategy in sorted({(cell.spec, cell.strategy) for cell in cells}):
        build_crn_for(resolve_spec(name), name=name, strategy=strategy).compiled()
    return 0


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--ready")
    parser.add_argument("--spans")
    parser.add_argument("--probe")
    parser.add_argument("command", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    if args.probe:
        return _probe(args.probe)

    import layers
    from repro.lab import cli

    recorder = installed = None
    if args.spans:
        recorder = layers.Recorder()
        recorder.recording = True
        installed = layers.install(recorder)
    else:
        layers.assert_unwrapped()
    command = args.command[1:] if args.command[:1] == ["--"] else args.command
    if args.ready:
        with open(args.ready + ".tmp", "w", encoding="utf-8") as handle:
            handle.write(str(os.getpid()))
        os.replace(args.ready + ".tmp", args.ready)
    try:
        code = cli.main(command)
    finally:
        if installed is not None:
            installed.remove()
            recorder.dump(args.spans)
    return code


if __name__ == "__main__":
    sys.exit(main())
