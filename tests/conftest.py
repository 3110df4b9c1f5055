from __future__ import annotations

import os
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))
# `python -m seqpack` subprocesses import the checkout's package too
_SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, (_SRC, os.environ.get("PYTHONPATH"))))

from seqpack import DocumentRecord


@pytest.fixture
def toy_docs() -> list[DocumentRecord]:
    """Three short documents that exercise every strategy's edge at
    context length 5 with separators on."""
    return [DocumentRecord("A", 3), DocumentRecord("B", 4), DocumentRecord("C", 2)]
