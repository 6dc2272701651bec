"""Documentation link checker: fail if the docs reference dead code.

Usage:  PYTHONPATH=src python scripts/check_docs.py [files...]

Scans README.md and docs/*.md (by default) for

* backticked ``repro.*`` dotted references — each must resolve to an
  importable module, or to an attribute of one (``repro.a.b.C.method``
  resolves module-prefix-first, then attribute access);
* backticked repository paths (``scripts/x.sh``, ``docs/api.md``,
  ``src/repro/...``, ``tests/...``, ``benchmarks/``) — each must exist;
* experiment names in ``python -m repro experiments <name>`` examples —
  each must be registered in ``repro.experiments.ALL_EXPERIMENTS``;
* policy / scenario names passed via ``--policy`` / ``--scenario`` on
  ``python -m repro matrix`` / ``fuzz`` / ``tune`` / ``profile`` example
  lines — each
  must be registered, where scenarios may be composition expressions and
  policies adaptive expressions (quoted, e.g. ``--scenario
  'overlay(rack,bursty)'`` / ``--policy 'adaptive(overdecomp,factor=4:5)'``)
  that must resolve through the respective expression parser;
* backticked scenario composition expressions anywhere in the text
  (``overlay(rack,bursty)``, ``mix(bursty,constant,weight=0.7)``) — any
  expression whose head is a registered scenario or combinator must
  resolve, so algebra examples can't reference unknown combinators,
  leaves, or parameters — and likewise backticked
  ``adaptive(<base>, knob=v1:v2)`` policy expressions, which must parse
  and validate against the base policy's knobs;
* every ``--flag`` on a ``python -m repro <subcommand>`` example line —
  each must be accepted by that subcommand's argument parser (so docs
  can't advertise ``--executor`` / ``--resume`` spellings the CLI does
  not take), every ``--executor NAME`` value must be a registered
  executor backend, every ``--backend NAME`` value must be a registered
  simulator backend, and every ``--reducer NAME`` value must be a
  registered streaming reducer;
* relative markdown links (``[text](other.md)``, ``[text](#anchor)``,
  ``[text](other.md#anchor)``) — the target file must exist next to the
  referring document and the anchor must match one of its headings
  (GitHub slug rules), which keeps the generated ``docs/results.md``
  policy pages and the hand-written ``docs/policies.md`` cross-links from
  rotting.

Exits non-zero listing every broken reference, so CI (and
``scripts/smoke.sh``) keeps documentation and code from drifting apart.
"""

from __future__ import annotations

import functools
import importlib
import re
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent

DOTTED = re.compile(r"`(repro(?:\.[A-Za-z_][A-Za-z0-9_]*)+)`")
PATHLIKE = re.compile(
    r"`((?:src|docs|scripts|tests|benchmarks|examples)(?:/[A-Za-z0-9_.\-]+)*/?)`"
)
EXPERIMENT_CMD = re.compile(r"python -m repro experiments ((?:[a-z0-9]+ )*[a-z0-9]+)")
SWEEP_CMD_LINE = re.compile(
    r"python -m repro (?:matrix|fuzz|stream|tune|profile)(?:[^\n]*\\\n)*[^\n]*"
)
REPRO_CMD_LINE = re.compile(
    r"python -m repro ([a-z]+)((?:[^\n]*\\\n)*[^\n]*)"
)
POLICY_FLAG = re.compile(r"--policy (?:'([^']+)'|([a-z0-9\-]+))")
SCENARIO_FLAG = re.compile(r"--scenario (?:'([^']+)'|([a-z0-9\-]+))")
COMPOSED_EXPR = re.compile(r"`([a-z_][a-z0-9_\-]*\([^`\s]*\))`")
CLI_FLAG = re.compile(r"(--[a-z][a-z0-9\-]*)")
EXECUTOR_FLAG = re.compile(r"--executor[= ]([A-Za-z0-9_\-]+)")
BACKEND_FLAG = re.compile(r"--backend[= ]([A-Za-z0-9_\-]+)")
REDUCER_FLAG = re.compile(r"--reducer[= ]([A-Za-z0-9_\-]+)")
MD_LINK = re.compile(r"(?<!!)\[[^\]\[]*\]\(([^()\s]+)\)")
HEADING = re.compile(r"^#{1,6}\s+(.+?)\s*$", re.MULTILINE)


def _slugify(heading: str) -> str:
    """GitHub-style anchor slug of a markdown heading."""
    text = heading.strip().lower().replace("`", "")
    text = re.sub(r"[^\w\- ]", "", text)
    return text.replace(" ", "-")


FENCED_BLOCK = re.compile(r"^```.*?^```", re.MULTILINE | re.DOTALL)


def _anchors_of(text: str) -> set[str]:
    # Strip fenced code blocks first: a `# comment` inside one is not a
    # heading and must not satisfy an anchor link.
    return {_slugify(h) for h in HEADING.findall(FENCED_BLOCK.sub("", text))}


def _check_link(path: Path, target: str) -> str | None:
    """Validate one relative markdown link; return an error or ``None``."""
    if re.match(r"^[a-z][a-z0-9+.\-]*:", target):  # http:, https:, mailto:
        return None
    dest, _, anchor = target.partition("#")
    if dest:
        dest_path = (path.parent / dest).resolve()
        if not dest_path.exists():
            return f"{path.name}: broken link target `{target}`"
    else:
        dest_path = path
    if anchor and dest_path.suffix == ".md":
        if anchor not in _anchors_of(dest_path.read_text()):
            return f"{path.name}: broken link anchor `{target}`"
    return None


@functools.lru_cache(maxsize=1)
def _cli_options() -> dict[str, frozenset[str]]:
    """Accepted option strings per ``python -m repro`` subcommand."""
    import argparse

    from repro.__main__ import build_parser

    parser = build_parser()
    subparsers = next(
        action
        for action in parser._actions
        if isinstance(action, argparse._SubParsersAction)
    )
    return {
        name: frozenset(sub._option_string_actions)
        for name, sub in subparsers.choices.items()
    }


def resolve_dotted(ref: str) -> bool:
    """True when ``ref`` is an importable module or attribute path."""
    parts = ref.split(".")
    for split in range(len(parts), 0, -1):
        module_name = ".".join(parts[:split])
        try:
            obj = importlib.import_module(module_name)
        except ImportError:
            continue
        try:
            for attr in parts[split:]:
                obj = getattr(obj, attr)
        except AttributeError:
            return False
        return True
    return False


def check_file(path: Path) -> list[str]:
    text = path.read_text()
    errors = []
    for ref in sorted(set(DOTTED.findall(text))):
        if not resolve_dotted(ref):
            errors.append(f"{path.name}: unresolvable reference `{ref}`")
    for ref in sorted(set(PATHLIKE.findall(text))):
        if not (REPO_ROOT / ref).exists():
            errors.append(f"{path.name}: missing path `{ref}`")
    from repro.experiments import ALL_EXPERIMENTS

    for names in EXPERIMENT_CMD.findall(text):
        for name in names.split():
            if name not in ALL_EXPERIMENTS:
                errors.append(f"{path.name}: unknown experiment `{name}`")
    from repro.cluster.compose import available_combinators
    from repro.cluster.scenarios import available_scenarios, get_scenario
    from repro.scheduling.policies import get_policy

    def _scenario_resolves(name: str) -> bool:
        try:
            get_scenario(name)  # parses composition expressions too
        except KeyError:
            return False
        return True

    def _policy_resolves(name: str) -> bool:
        try:
            get_policy(name)  # parses adaptive(...) expressions too
        except KeyError:
            return False
        return True

    for command in SWEEP_CMD_LINE.findall(text):
        for quoted, bare in POLICY_FLAG.findall(command):
            name = quoted or bare
            if not _policy_resolves(name):
                errors.append(f"{path.name}: unknown policy `{name}`")
        for quoted, bare in SCENARIO_FLAG.findall(command):
            name = quoted or bare
            if not _scenario_resolves(name):
                errors.append(f"{path.name}: unknown scenario `{name}`")
    # Composition expressions anywhere in the text: validate any whose
    # head is a registered scenario or combinator — or the adaptive
    # policy wrapper — (other backticked call-shaped code —
    # `run(quick=True)` etc. — is left alone).
    for expr in sorted(set(COMPOSED_EXPR.findall(text))):
        if "..." in expr or "<" in expr:
            continue  # grammar placeholder, not a concrete expression
        head = expr.split("(", 1)[0]
        if head in available_scenarios() or head in available_combinators():
            if not _scenario_resolves(expr):
                errors.append(
                    f"{path.name}: unresolvable scenario expression `{expr}`"
                )
        elif head == "adaptive":
            if not _policy_resolves(expr):
                errors.append(
                    f"{path.name}: unresolvable policy expression `{expr}`"
                )
    from repro.cluster.events import available_backends
    from repro.engine.executors import available_executors
    from repro.engine.reduce import available_reducers

    cli_options = _cli_options()
    for subcommand, rest in REPRO_CMD_LINE.findall(text):
        if subcommand not in cli_options:
            errors.append(f"{path.name}: unknown subcommand `{subcommand}`")
            continue
        for flag in sorted(set(CLI_FLAG.findall(rest))):
            if flag not in cli_options[subcommand]:
                errors.append(
                    f"{path.name}: `repro {subcommand}` takes no `{flag}`"
                )
        for name in EXECUTOR_FLAG.findall(rest):
            if name not in available_executors() and name != "NAME":
                errors.append(f"{path.name}: unknown executor `{name}`")
        for name in BACKEND_FLAG.findall(rest):
            if name not in available_backends() and name != "NAME":
                errors.append(f"{path.name}: unknown backend `{name}`")
        for name in REDUCER_FLAG.findall(rest):
            if name not in available_reducers() and name != "NAME":
                errors.append(f"{path.name}: unknown reducer `{name}`")
    for target in sorted(set(MD_LINK.findall(text))):
        error = _check_link(path, target)
        if error:
            errors.append(error)
    return errors


def main(argv: list[str]) -> int:
    if argv:
        files = [Path(a) for a in argv]
    else:
        files = [REPO_ROOT / "README.md", *sorted((REPO_ROOT / "docs").glob("*.md"))]
    errors = []
    for path in files:
        if not path.exists():
            errors.append(f"{path}: file not found")
            continue
        errors.extend(check_file(path))
    for error in errors:
        print(f"BROKEN: {error}", file=sys.stderr)
    checked = ", ".join(p.name for p in files)
    if errors:
        print(f"{len(errors)} broken reference(s) in {checked}", file=sys.stderr)
        return 1
    print(f"docs OK: {checked}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
