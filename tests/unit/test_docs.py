"""The docs gate, in tier-1: doctest every docs page, verify every link.

The CI ``docs`` job runs the same checks via ``tools/check_docs.py``;
running them here too means broken documentation fails locally before it
fails in CI.
"""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent.parent
_SPEC = importlib.util.spec_from_file_location(
    "check_docs", REPO_ROOT / "tools" / "check_docs.py"
)
check_docs = importlib.util.module_from_spec(_SPEC)
sys.modules.setdefault("check_docs", check_docs)
_SPEC.loader.exec_module(check_docs)


def test_docs_tree_exists():
    pages = {path.relative_to(REPO_ROOT).as_posix() for path in check_docs.doc_pages()}
    for required in (
        "docs/README.md",
        "docs/architecture.md",
        "docs/operations.md",
        "docs/serve.md",
        "docs/windows.md",
        "docs/api/index.md",
        "docs/api/core.md",
        "docs/api/frequent.md",
        "docs/api/sampling.md",
        "docs/api/distributed.md",
        "docs/api/io.md",
        "docs/api/query.md",
    ):
        assert required in pages


def test_docs_doctests_pass(monkeypatch):
    # The pages document the default kernel (``resolve_kernel_name(None)``),
    # so they run with REPRO_KERNEL unset, as the docs CI job runs them.
    monkeypatch.delenv("REPRO_KERNEL", raising=False)
    assert check_docs.run_doctests() == []


def test_docs_links_resolve():
    assert check_docs.check_links() == []


def test_docs_pages_reachable_from_index():
    assert check_docs.check_reachability() == []


def test_github_slugs():
    assert check_docs.github_slug("Batched ingestion: `update_batch`") == (
        "batched-ingestion-update_batch"
    )
    assert check_docs.github_slug("Merging (`repro.core.merge`)") == (
        "merging-reprocoremerge"
    )
