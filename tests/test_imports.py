"""Every module-level import in ``src/ddikit`` is used by its module, only
the normalization kernel takes a variance, every ddikit name the benchmark
tracer patches exists, the tracer can read a tape, and every name and
keyword the benchmark passes to ddikit exists."""

import ast
import importlib
import importlib.util
import inspect
import math
from pathlib import Path

import numpy as np

import ddikit
from ddikit import autodiff as ad
from ddikit import cli, kg, training
from ddikit.model import ModelConfig


def _unused_imports(tree: ast.Module):
    """(line, name) of each module-level import whose bound name the module
    never reads."""
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound[name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in bound.items() if name not in read)


def test_no_unused_module_imports():
    pkg = Path(ddikit.__file__).parent
    found = []
    for src in sorted(pkg.glob("*.py")):
        if src.name == "__init__.py":
            continue
        tree = ast.parse(src.read_text(encoding="utf-8"), filename=str(src))
        found += [f"{src.name}:{line} {name}" for line, name in _unused_imports(tree)]
    assert found == [], f"unused imports: {found}"


def _private(name: str) -> bool:
    return name.startswith("_") and not name.endswith("__")


def test_no_module_imports_a_private_name_of_another():
    """A name with one leading underscore belongs to its module: no module
    of ``src/ddikit`` imports one from another (``from .x import _name``) or
    reads one off a module it imported (``x._name``)."""
    pkg = Path(ddikit.__file__).parent
    found = []
    for src in sorted(pkg.glob("*.py")):
        tree = ast.parse(src.read_text(encoding="utf-8"), filename=str(src))
        modules = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module != "__future__":
                found += [f"{src.name}:{node.lineno} {alias.name}" for alias in node.names
                          if _private(alias.name)]
                if node.level and not node.module:  # from . import x
                    modules |= {alias.asname or alias.name for alias in node.names}
        found += [f"{src.name}:{node.lineno} {node.value.id}.{node.attr}"
                  for node in ast.walk(tree) if isinstance(node, ast.Attribute)
                  and isinstance(node.value, ast.Name) and node.value.id in modules
                  and _private(node.attr)]
    assert found == [], f"private names taken from another module: {found}"


def test_only_blas_loads_native_code_or_starts_threads():
    """``ddikit.blas`` owns the threads: it alone imports ``ctypes``, to set
    OpenBLAS to one thread, and constructs a ``threading.Thread``, for
    ``map_in_threads``'s workers. A thread-local (``threading.local``) is
    allowed anywhere."""
    pkg = Path(ddikit.__file__).parent
    found = []
    for src in sorted(pkg.glob("*.py")):
        if src.name == "blas.py":
            continue
        tree = ast.parse(src.read_text(encoding="utf-8"), filename=str(src))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                found += [f"{src.name}:{node.lineno} import {alias.name}" for alias in node.names
                          if alias.name.split(".")[0] == "ctypes"]
            elif isinstance(node, ast.ImportFrom) and node.module:
                if node.module.split(".")[0] == "ctypes":
                    found.append(f"{src.name}:{node.lineno} from {node.module}")
                elif node.module == "threading":
                    found += [f"{src.name}:{node.lineno} threading.Thread" for alias in node.names
                              if alias.name == "Thread"]
            elif (isinstance(node, ast.Attribute) and node.attr == "Thread"
                  and isinstance(node.value, ast.Name) and node.value.id == "threading"):
                found.append(f"{src.name}:{node.lineno} threading.Thread")
    assert found == [], f"ctypes or threads outside ddikit.blas: {found}"


def test_only_the_normalization_kernel_takes_a_variance():
    """Layer norm and batch norm share one normalization kernel in
    ``ddikit.autodiff``, which takes the variance as the mean of the
    squared centred values: no module of ``src/ddikit`` calls ``np.var``,
    ``np.std`` or an array's ``.var`` or ``.std``, so a second
    normalization arithmetic cannot come back unseen."""
    pkg = Path(ddikit.__file__).parent
    found = []
    for src in sorted(pkg.glob("*.py")):
        tree = ast.parse(src.read_text(encoding="utf-8"), filename=str(src))
        found += [f"{src.name}:{node.lineno} .{node.func.attr}(" for node in ast.walk(tree)
                  if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                  and node.func.attr in ("var", "std")]
    assert found == [], f"variance taken outside the normalization kernel: {found}"


def _tracer_tables() -> dict:
    """The ``*_PATCHES`` and ``*_MODULES`` tables of ``perfbench/tracer.py``,
    read from its source without importing it."""
    src = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    tree = ast.parse(src.read_text(encoding="utf-8"), filename=str(src))
    return {node.targets[0].id: ast.literal_eval(node.value) for node in tree.body
            if isinstance(node, ast.Assign) and isinstance(node.targets[0], ast.Name)
            and node.targets[0].id.endswith(("_PATCHES", "_MODULES"))}


def test_names_the_benchmark_tracer_patches_exist():
    """A traced benchmark run (``--trace 1``) swaps these module attributes
    and model sub-modules for timing wrappers; a name dropped from ddikit
    would break that run at run time."""
    tables = _tracer_tables()
    assert set(tables) == {"TRAINING_PATCHES", "CLI_PATCHES", "KG_PATCHES",
                           "MODEL_MODULES", "LAYER_MODULES"}
    targets = [(training, tables["TRAINING_PATCHES"]), (cli, tables["CLI_PATCHES"]),
               (kg, tables["KG_PATCHES"]), (cli, (("DdiModel", ""), ("main", "")))]
    model = cli.DdiModel(ModelConfig(vocab_size=12, n_classes=3, d_model=4, n_layers=2,
                                     n_heads=2, d_ff=4, max_len=8, kg_dim=4, kg_heads=2,
                                     conv_blocks=1, mlp1_hidden=4, mlp1_out=4,
                                     mlp2_hidden=4))
    targets.append((model, tables["MODEL_MODULES"] + (("forward", ""),)))
    assert len(model.encoder.layers) == 2
    targets += [(layer, tables["LAYER_MODULES"]) for layer in model.encoder.layers]
    missing = [f"{getattr(obj, '__name__', type(obj).__name__)}.{attr}"
               for obj, table in targets for attr, _ in table
               if not callable(getattr(obj, attr, None))]
    assert missing == []


def test_the_benchmark_tracer_reads_a_recorded_forward():
    """A traced run's ``tape_entries`` and ``tape_bytes`` come from
    ``perfbench/tracer.py``'s ``_tape_stats`` over a tape's entries, which
    reads each entry's ``output.data.nbytes``: the entry count and the
    outputs' logical bytes, though the tape holds none of their arrays. The
    caller's logits keep their data."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    cfg = ModelConfig(vocab_size=12, n_classes=3, d_model=8, n_layers=1, n_heads=2, d_ff=8,
                      max_len=16, kg_dim=4, kg_heads=2, conv_blocks=1, mlp1_hidden=4,
                      mlp1_out=4, mlp2_hidden=4)
    model = cli.DdiModel(cfg)
    ids = np.random.default_rng(0).integers(4, 12, size=(3, 16))
    tape = ad.Tape()
    with tape:
        logits = model.forward(ids, np.zeros_like(ids), ids != 0, np.zeros((3, 4)))
    entries, nbytes = tracer._tape_stats(tape.entries)
    assert entries == len(tape.entries) > 1
    assert nbytes == sum(math.prod(e.output.shape) * e.output.dtype.itemsize
                         for e in tape.entries)
    assert tape.entries[0].output.shape == (3, 16, 8)  # the trunk's one entry
    assert tape.entries[-1].output.shape == logits.shape == (3, 3)
    assert np.isfinite(logits.data).all()


def _bench_ddikit_uses():
    """What ``perfbench/bench.py`` takes from ddikit, read from its source
    without importing it: each (module, name) it imports, and each (callable
    as written, its ddikit object, keyword) it passes."""
    src = Path(__file__).resolve().parents[1] / "perfbench" / "bench.py"
    tree = ast.parse(src.read_text(encoding="utf-8"), filename=str(src))
    imported, bound = [], {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == "ddikit":
                    bound[alias.asname or "ddikit"] = ddikit
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "ddikit":
            module = importlib.import_module(node.module)
            for alias in node.names:
                imported.append((node.module, alias.name))
                bound[alias.asname or alias.name] = getattr(module, alias.name, None)
    keywords = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        chain, func = [], node.func
        while isinstance(func, ast.Attribute):
            chain.insert(0, func.attr)
            func = func.value
        if not isinstance(func, ast.Name) or func.id not in bound:
            continue
        target = bound[func.id]
        for attr in chain:
            target = getattr(target, attr, None)
        written = ".".join([func.id] + chain)
        keywords += [(written, target, kw.arg) for kw in node.keywords if kw.arg]
    return imported, keywords


def test_what_the_benchmark_uses_of_ddikit_exists():
    """Every name ``perfbench/bench.py`` imports from ddikit exists, and
    every keyword it passes to a ddikit callable is in that callable's
    signature; a renamed or dropped one would break the benchmark at run
    time."""
    imported, keywords = _bench_ddikit_uses()
    assert ("ddikit.training", "predict_scores") in imported
    assert ("predict_scores", training.predict_scores, "max_len") in keywords
    missing = [f"{module}.{name}" for module, name in imported
               if not hasattr(importlib.import_module(module), name)]
    assert missing == []

    def accepts(fn, keyword):
        params = inspect.signature(fn).parameters
        return keyword in params or any(p.kind is p.VAR_KEYWORD for p in params.values())

    unknown = [f"{written}({keyword}=)" for written, fn, keyword in keywords
               if not callable(fn) or not accepts(fn, keyword)]
    assert unknown == []
