"""Docs consistency: intra-repo links resolve, the workload gallery
covers every registry name and every ``*.md`` file the code cites exists
(same checks CI's docs job runs via ``tools/check_docs.py``)."""

import importlib.util
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent


def _checker():
    spec = importlib.util.spec_from_file_location(
        "check_docs", REPO_ROOT / "tools" / "check_docs.py"
    )
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


class TestDocs:
    def test_intra_repo_links_resolve(self):
        assert _checker().check_links() == []

    def test_gallery_covers_every_registry_workload(self):
        assert _checker().check_workload_coverage() == []

    def test_checker_catches_broken_link(self, tmp_path, monkeypatch):
        mod = _checker()
        (tmp_path / "docs").mkdir()
        (tmp_path / "bad.md").write_text("[dead](does/not/exist.md)")
        monkeypatch.setattr(mod, "REPO_ROOT", tmp_path)
        errors = mod.check_links()
        assert len(errors) == 1 and "does/not/exist.md" in errors[0]

    def test_checker_catches_missing_workload(self, tmp_path, monkeypatch):
        mod = _checker()
        (tmp_path / "docs").mkdir()
        (tmp_path / "docs" / "workloads.md").write_text("# empty gallery\n")
        monkeypatch.setattr(mod, "REPO_ROOT", tmp_path)
        # The registry import falls back to the installed repro package
        # (sys.path already carries src/ under pytest).
        errors = mod.check_workload_coverage()
        assert any("'cg/fv1/N=1'" in e for e in errors)
        assert any("xformer" in e for e in errors)

    def test_checker_rejects_prefix_only_coverage(self, tmp_path, monkeypatch):
        # `cg/fv1/N=1` inside `cg/fv1/N=16` must NOT count as documented.
        mod = _checker()
        (tmp_path / "docs").mkdir()
        (tmp_path / "docs" / "workloads.md").write_text("only `cg/fv1/N=16`\n")
        monkeypatch.setattr(mod, "REPO_ROOT", tmp_path)
        errors = mod.check_workload_coverage()
        assert any("'cg/fv1/N=1'" in e for e in errors)
        assert not any("'cg/fv1/N=16'" in e for e in errors)

    def test_every_doc_reachable_from_entry_points(self):
        assert _checker().check_docs_reachable() == []

    def test_checker_catches_orphaned_doc(self, tmp_path, monkeypatch):
        mod = _checker()
        (tmp_path / "docs").mkdir()
        (tmp_path / "README.md").write_text("[arch](docs/architecture.md)\n")
        (tmp_path / "docs" / "architecture.md").write_text("# arch\n")
        (tmp_path / "docs" / "orphan.md").write_text("# nobody links here\n")
        monkeypatch.setattr(mod, "REPO_ROOT", tmp_path)
        errors = mod.check_docs_reachable()
        assert len(errors) == 1 and "orphan.md" in errors[0]

    def test_cited_docs_exist(self):
        assert _checker().check_cited_docs() == []

    def test_checker_catches_cited_missing_doc(self, tmp_path, monkeypatch):
        mod = _checker()
        (tmp_path / "docs").mkdir()
        (tmp_path / "docs" / "testing.md").write_text("# testing\n")
        (tmp_path / "src").mkdir()
        (tmp_path / "src" / "mod.py").write_text(
            '"""See docs/testing.md and NOTES.md."""\n'
        )
        monkeypatch.setattr(mod, "REPO_ROOT", tmp_path)
        assert mod.check_cited_docs() == ["src/mod.py:1: cites missing NOTES.md"]

    def test_checker_scans_tests_and_tools(self, tmp_path, monkeypatch):
        mod = _checker()
        for top in ("tests", "tools"):
            (tmp_path / top).mkdir()
            (tmp_path / top / "helper.py").write_text("# see NOTES.md\n")
        monkeypatch.setattr(mod, "REPO_ROOT", tmp_path)
        assert mod.check_cited_docs() == [
            "tests/helper.py:1: cites missing NOTES.md",
            "tools/helper.py:1: cites missing NOTES.md",
        ]

    def test_checker_exempts_its_own_tests(self, tmp_path, monkeypatch):
        mod = _checker()
        (tmp_path / "tests").mkdir()
        (tmp_path / "tests" / "test_docs.py").write_text("# NOTES.md\n")
        monkeypatch.setattr(mod, "REPO_ROOT", tmp_path)
        assert mod.check_cited_docs() == []

    def test_checker_resolves_root_documents(self, tmp_path, monkeypatch):
        mod = _checker()
        (tmp_path / "README.md").write_text("# readme\n")
        (tmp_path / "tools").mkdir()
        (tmp_path / "tools" / "gate.py").write_text(
            '"""Documented in README.md and layerbench/README.md."""\n'
        )
        monkeypatch.setattr(mod, "REPO_ROOT", tmp_path)
        assert mod.check_cited_docs() == []

    def test_key_docs_exist(self):
        for rel in ("README.md", "PAPER.md", "docs/architecture.md",
                    "docs/workloads.md", "docs/extending.md",
                    "docs/tuner.md", "docs/testing.md",
                    "docs/analytic.md"):
            assert (REPO_ROOT / rel).is_file(), rel

    def test_cross_links_present(self):
        readme = (REPO_ROOT / "README.md").read_text()
        assert "docs/workloads.md" in readme
        assert "docs/extending.md" in readme
        assert "docs/tuner.md" in readme
        assert "docs/testing.md" in readme
        assert "docs/analytic.md" in readme
        arch = (REPO_ROOT / "docs" / "architecture.md").read_text()
        assert "extending.md" in arch and "workloads.md" in arch
        assert "tuner.md" in arch and "testing.md" in arch
        assert "analytic.md" in arch
        tuner = (REPO_ROOT / "docs" / "tuner.md").read_text()
        assert "analytic.md" in tuner
        testing = (REPO_ROOT / "docs" / "testing.md").read_text()
        assert "analytic.md" in testing
        assert "test_analytic_differential.py" in testing
