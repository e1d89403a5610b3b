"""Every file ddikit writes goes through ``ddikit.atomic.atomic_open``: a
write that fails partway leaves the previous file intact and no tmp file.
Every text file goes through ``ddikit.atomic.write_lines``, and only
``ddikit.atomic`` frames binary files. ``read_arrays`` reads them array by
array, keeping only the groups asked for."""

import ast
import builtins
import errno
import os
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import ddikit
from ddikit.atomic import read_arrays, write_arrays
from ddikit.checkpoint import load_checkpoint, read_checkpoint, save_checkpoint
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


class _ReadError(Exception):
    """Not a ValueError, so a stray numpy or struct error cannot pass for it."""


def _odd_shapes():
    """A 0-d, a zero-size and a 2-d array, in two groups."""
    rng = np.random.default_rng(0)
    return {"x": {"scalar": np.array(2.5), "empty": np.empty((0, 3), np.float32)},
            "y": {"matrix": rng.standard_normal((5, 7)).astype(np.float32)}}


def test_a_0d_array_keeps_its_shape(tmp_path):
    write_arrays(tmp_path / "a.bin", {"g": {"s": np.array(-1.25)}}, {})
    _, groups = read_arrays(tmp_path / "a.bin", _ReadError)
    assert groups["g"]["s"].shape == ()
    assert groups["g"]["s"][()] == -1.25


def test_kept_arrays_read_back_into_their_own_buffers(tmp_path):
    written = _odd_shapes()
    write_arrays(tmp_path / "a.bin", written, {"k": 1})
    for keep, names in ((None, {"x", "y"}), (("y",), {"y"}), ((), set())):
        meta, groups = read_arrays(tmp_path / "a.bin", _ReadError, keep)
        assert meta == {"k": 1} and set(groups) == names
        for group in names:
            assert set(groups[group]) == set(written[group])
            for name, arr in groups[group].items():
                want = written[group][name]
                assert arr.flags.owndata and arr.flags.writeable
                assert (arr.dtype, arr.shape) == (want.dtype, want.shape)
                assert arr.tobytes() == want.tobytes()


def test_every_truncation_of_an_array_file_raises_the_callers_error(tmp_path):
    write_arrays(tmp_path / "a.bin", _odd_shapes(), {})
    blob = (tmp_path / "a.bin").read_bytes()
    short = tmp_path / "short.bin"
    for k in range(len(blob)):
        short.write_bytes(blob[:k])
        for keep in (None, ()):
            with pytest.raises(_ReadError):
                read_arrays(short, _ReadError, keep)


def test_an_array_that_is_not_kept_is_still_checked(tmp_path):
    groups = _odd_shapes()
    groups["y"]["matrix"][2, 3] = np.nan
    write_arrays(tmp_path / "a.bin", groups, {})
    for keep in ((), ("x",)):
        with pytest.raises(_ReadError, match="y 'matrix' holds NaN or Inf"):
            read_arrays(tmp_path / "a.bin", _ReadError, keep)


def _traced_peak(fn):
    """Bytes ``fn()`` allocates at its peak, as tracemalloc counts them."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("keep", [None, ("a",), ("b",), ()])
def test_reading_an_array_file_holds_the_kept_arrays_and_one_more(tmp_path, keep):
    """The whole file is 4 MB; before arrays were read one by one into their
    own buffers, any read peaked at twice that."""
    rng = np.random.default_rng(0)
    groups = {"a": {"big": rng.standard_normal(2**17), "small": rng.standard_normal(2**16)},
              "b": {"bigger": rng.standard_normal(2**18), "small": rng.standard_normal(2**16)}}
    write_arrays(tmp_path / "a.bin", groups, {})
    kept = sum(a.nbytes for g, arrays in groups.items() if keep is None or g in keep
               for a in arrays.values())
    largest = max(a.nbytes for arrays in groups.values() for a in arrays.values())
    peak = _traced_peak(lambda: read_arrays(tmp_path / "a.bin", _ReadError, keep))
    assert peak < 1.1 * (kept + largest)


def test_loading_a_checkpoint_without_an_optimizer_leaves_the_moments_behind(tmp_path):
    """Checkpoints written before they dropped the optimizer hold the Adam
    moments, twice the parameters; loading one holds the parameters and
    buffers plus one array, never the moments, and restores the parameters
    bit for bit. The model is wide enough (15 MB a checkpoint) that the
    header's parse is well inside the 10%."""
    cfg = ModelConfig(vocab_size=200, n_classes=3, d_model=256, n_layers=1, n_heads=2,
                      d_ff=256, max_len=32, conv_blocks=2, kg_dim=16, kg_heads=2,
                      mlp1_hidden=32, mlp1_out=16, mlp2_hidden=16)
    model = DdiModel(cfg, seed=0)
    save_checkpoint(tmp_path / "new.ckpt", model)
    meta, groups = read_checkpoint(tmp_path / "new.ckpt")
    for group in ("adam_m", "adam_v"):
        groups[group] = {n: np.ones_like(p.data) for n, p in model.parameters().items()}
    meta["optimizer"] = {"learning_rate": 1e-3, "weight_decay": 0.0, "beta1": 0.9,
                         "beta2": 0.999, "epsilon": 1e-8, "step_count": 1}
    write_arrays(tmp_path / "m.ckpt", groups, meta)
    del groups
    target = DdiModel(cfg, seed=1)
    params = sum(p.data.nbytes for p in target.parameters().values())
    kept = params + sum(b.nbytes for b in target.buffers().values())
    largest = max(p.data.nbytes for p in target.parameters().values())
    peak = _traced_peak(lambda: load_checkpoint(tmp_path / "m.ckpt", target))
    assert peak < 1.1 * (kept + largest)
    for name, p in model.parameters().items():
        assert np.array_equal(target.parameters()[name].data, p.data)
