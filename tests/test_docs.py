"""Documentation stays wired to the code: link checker + generated API
reference staleness, both in tier-1."""

import importlib.util
import re
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent


def _load_script(name: str):
    spec = importlib.util.spec_from_file_location(
        name, REPO_ROOT / "scripts" / f"{name}.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _load_checker():
    return _load_script("check_docs")


def test_readme_and_docs_references_resolve():
    checker = _load_checker()
    assert checker.main([]) == 0


def test_checker_flags_broken_references(tmp_path):
    checker = _load_checker()
    bad = tmp_path / "bad.md"
    bad.write_text(
        "see `repro.experiments.no_such_module` and `scripts/missing.sh`\n"
        "run `python -m repro experiments fig99`\n"
    )
    errors = checker.check_file(bad)
    assert len(errors) == 3


def test_required_docs_exist():
    for path in (
        "README.md",
        "docs/architecture.md",
        "docs/extending.md",
        "docs/scenarios.md",
        "docs/policies.md",
        "docs/api.md",
        "docs/results.md",
        "docs/tournament.md",
    ):
        assert (REPO_ROOT / path).exists(), path


def test_markdown_files_named_in_code_exist():
    # Docstrings and comments cite documents by repository path
    # (``docs/architecture.md``) or by root-level name (``README.md``);
    # each must exist.  Bare lower-case names are relative links inside
    # the generated docs or test fixtures, and are not checked here.
    named = re.compile(r"(?<![\w./-])((?:[\w-]+/)*[\w-]+\.md)\b")
    missing = [
        f"{path.relative_to(REPO_ROOT)}: {name}"
        for top in ("src", "tests", "benchmarks", "scripts")
        for path in sorted((REPO_ROOT / top).rglob("*.py"))
        for name in named.findall(path.read_text())
        if ("/" in name or name[0].isupper())
        and not (REPO_ROOT / name).exists()
    ]
    assert missing == []


def test_api_reference_is_current():
    # docs/api.md is generated; tier-1 fails when it drifts from the
    # sources.  Regenerate with: PYTHONPATH=src python scripts/gen_api_docs.py
    generator = _load_script("gen_api_docs")
    assert (REPO_ROOT / "docs" / "api.md").read_text() == generator.build()


def test_api_check_flag_detects_staleness(tmp_path, monkeypatch, capsys):
    generator = _load_script("gen_api_docs")
    stale = tmp_path / "api.md"
    stale.write_text("# stale\n")
    monkeypatch.setattr(generator, "API_PATH", stale)
    assert generator.main(["--check"]) == 1
    assert generator.main([]) == 0  # writes the fresh file
    assert generator.main(["--check"]) == 0


def test_results_handbook_is_current():
    # docs/results.md is generated from the (fully seeded, quick-scale)
    # policy × scenario matrix; tier-1 fails when it drifts from what the
    # current sources simulate.  Regenerate with:
    # PYTHONPATH=src python scripts/gen_results_docs.py
    generator = _load_script("gen_results_docs")
    assert (REPO_ROOT / "docs" / "results.md").read_text() == generator.build()


def test_results_check_flag_detects_staleness(tmp_path, monkeypatch, capsys):
    generator = _load_script("gen_results_docs")
    stale = tmp_path / "results.md"
    stale.write_text("# stale\n")
    monkeypatch.setattr(generator, "RESULTS_PATH", stale)
    assert generator.main(["--check"]) == 1
    assert generator.main([]) == 0  # writes the fresh file
    assert generator.main(["--check"]) == 0


def test_tournament_report_is_current():
    # docs/tournament.md is generated from the fixed-seed quick-scale fuzz
    # tournament (policy registry × generated scenario population);
    # tier-1 fails when it drifts from what the current sources simulate.
    # Regenerate with: PYTHONPATH=src python scripts/gen_tournament_docs.py
    generator = _load_script("gen_tournament_docs")
    assert (REPO_ROOT / "docs" / "tournament.md").read_text() == generator.build()


def test_tournament_check_flag_detects_staleness(tmp_path, monkeypatch, capsys):
    generator = _load_script("gen_tournament_docs")
    stale = tmp_path / "tournament.md"
    stale.write_text("# stale\n")
    monkeypatch.setattr(generator, "TOURNAMENT_PATH", stale)
    assert generator.main(["--check"]) == 1
    assert generator.main([]) == 0  # writes the fresh file
    assert generator.main(["--check"]) == 0


def test_checker_flags_broken_links_and_matrix_names(tmp_path):
    checker = _load_checker()
    bad = tmp_path / "bad.md"
    bad.write_text(
        "# Only heading\n"
        "see [gone](missing.md) and [lost](#no-such-anchor)\n"
        "run `python -m repro matrix --policy no-such-policy "
        "--scenario no-such-scenario`\n"
    )
    errors = checker.check_file(bad)
    assert len(errors) == 4

    good = tmp_path / "good.md"
    good.write_text(
        "# Policy pages\n\n### policy: mds\n\n"
        "see [pages](#policy-mds) and [self](good.md#policy-pages)\n"
        "run `python -m repro matrix --policy mds --scenario spot`\n"
    )
    assert checker.check_file(good) == []


def test_checker_validates_fuzz_lines_and_composed_expressions(tmp_path):
    checker = _load_checker()
    bad = tmp_path / "bad.md"
    bad.write_text(
        "run `python -m repro fuzz --policy no-such-policy "
        "--scenario 'nope(bursty)'`\n"
        "compose with `overlay(rack,no-such-leaf)` or "
        "`mix(bursty,constant,w=0.5)`\n"
    )
    errors = checker.check_file(bad)
    assert len(errors) == 4

    good = tmp_path / "good.md"
    good.write_text(
        "run `python -m repro fuzz --scenarios 8 --trials 2 --policy mds "
        "--scenario 'overlay(rack,bursty)'`\n"
        "compose with `mix(bursty,constant,weight=0.7)` or "
        "`concat(spot,traces(preset=stable),segment=16)`;\n"
        "non-scenario calls like `run(quick=True)` are left alone\n"
    )
    assert checker.check_file(good) == []


@pytest.mark.parametrize(
    "ref",
    [
        "repro.engine.runner.ExecutionEngine.run",
        "repro.runtime.batch.BatchCodedRunner",
        "repro.cluster.simulator.CodedIterationSim.run_batch",
    ],
)
def test_resolver_accepts_attribute_paths(ref):
    checker = _load_checker()
    assert checker.resolve_dotted(ref)
