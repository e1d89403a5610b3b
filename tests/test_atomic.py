"""Every file ddikit writes goes through ``ddikit.atomic.atomic_open``: a
write that fails partway leaves the previous file intact and no tmp file.
Every text file goes through ``ddikit.atomic.write_lines``, and only
``ddikit.atomic`` frames binary files."""

import ast
import builtins
import errno
import os
from pathlib import Path

import numpy as np
import pytest

import ddikit
from ddikit.checkpoint import save_checkpoint
from ddikit.model import DdiModel, ModelConfig

TINY = ModelConfig(vocab_size=12, n_classes=3, d_model=8, n_layers=1, n_heads=2,
                   d_ff=8, max_len=16, conv_blocks=2, kg_dim=8, kg_heads=2,
                   mlp1_hidden=8, mlp1_out=8, mlp2_hidden=8)


class _DiskFull:
    """File handle whose second write fails with ENOSPC."""

    def __init__(self, fh):
        self.fh = fh
        self.writes = 0

    def write(self, data):
        self.writes += 1
        if self.writes > 1:
            raise OSError(errno.ENOSPC, "No space left on device")
        return self.fh.write(data)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()
        return False


def test_failed_checkpoint_save_keeps_old_file(tmp_path, monkeypatch):
    model = DdiModel(TINY, seed=0)
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, model, epoch=0)
    before = path.read_bytes()

    for p in model.parameters().values():
        p.data = p.data + np.ones_like(p.data)
    real_open = builtins.open

    def full_open(file, mode="r", *args, **kwargs):
        fh = real_open(file, mode, *args, **kwargs)
        return _DiskFull(fh) if "w" in mode else fh

    monkeypatch.setattr(builtins, "open", full_open)
    with pytest.raises(OSError) as info:
        save_checkpoint(path, model, epoch=1)
    monkeypatch.undo()
    assert info.value.errno == errno.ENOSPC
    assert path.read_bytes() == before
    assert os.listdir(tmp_path) == ["model.ckpt"]


def _write_calls(tree: ast.AST):
    """Line numbers of open(...) calls with a write (or unknown) mode, of
    atomic_open(...) calls in text (or unknown) mode, and of
    Path.write_text/write_bytes calls."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Attribute) and func.attr in ("write_text", "write_bytes"):
            yield node.lineno
        if not (isinstance(func, ast.Name) and func.id in ("open", "atomic_open")):
            continue
        mode = node.args[1] if len(node.args) > 1 else next(
            (k.value for k in node.keywords if k.arg == "mode"), None)
        known = isinstance(mode, ast.Constant) and isinstance(mode.value, str)
        if func.id == "atomic_open":
            # text files are framed by atomic.write_lines
            if not (known and "b" in mode.value):
                yield node.lineno
        elif mode is not None and (not known or set(mode.value) & set("wax+")):
            yield node.lineno


def _binary_framing(tree: ast.AST):
    """Line numbers of ``struct`` imports and of ``frombuffer`` calls."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import) and any(a.name == "struct" for a in node.names):
            yield node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module == "struct":
            yield node.lineno
        elif isinstance(node, ast.Call) and "frombuffer" in (
                getattr(node.func, "attr", None), getattr(node.func, "id", None)):
            yield node.lineno


def _outside_atomic(find):
    """``module:line`` for each line ``find`` yields in a ddikit module other
    than atomic.py."""
    pkg = Path(ddikit.__file__).parent
    found = []
    for src in sorted(pkg.glob("*.py")):
        if src.name == "atomic.py":
            continue
        tree = ast.parse(src.read_text(encoding="utf-8"), filename=str(src))
        found += [f"{src.name}:{line}" for line in find(tree)]
    return found


def test_only_atomic_open_writes_files():
    found = _outside_atomic(_write_calls)
    assert found == [], f"files written outside atomic_open, or text outside write_lines: {found}"


def test_only_atomic_frames_binary_files():
    """Array files are framed by atomic.write_arrays and atomic.read_arrays."""
    found = _outside_atomic(_binary_framing)
    assert found == [], f"struct or frombuffer outside atomic.py: {found}"
