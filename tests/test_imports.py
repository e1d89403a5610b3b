"""Every module-level import in ``src/ddikit`` is used by its module, and
every ddikit name the benchmark tracer patches exists."""

import ast
from pathlib import Path

import ddikit
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
