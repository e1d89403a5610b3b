"""The bytes of the arrays a recorded forward keeps for its backward.

``kept_bytes`` walks tapes, their entries, the backward closures' cells
(and the tapes that ``join_tiles`` entries hold in theirs), containers and
tensors, and counts every array it reaches by the array that owns its
memory, so views count once, at their owner's size. Parameters and the
arrays they own are left out, and so is a gradient node's zero-stride data,
which owns no memory."""

import numpy as np

from ddikit import autodiff as ad


def _owner(arr: np.ndarray) -> np.ndarray:
    while isinstance(arr.base, np.ndarray):
        arr = arr.base
    return arr


def kept_bytes(*roots) -> int:
    """The bytes of the arrays reachable from ``roots`` that own their
    memory and are no parameter's, each counted once."""
    owners, params, seen = {}, set(), set()
    stack = list(roots)
    while stack:
        obj = stack.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        if isinstance(obj, np.ndarray):
            owner = _owner(obj)
            if owner.base is None:  # a node's data views bytes it does not own
                owners[id(owner)] = owner.nbytes
        elif isinstance(obj, ad.Parameter):
            params.add(id(_owner(obj.data)))
        elif isinstance(obj, ad.Tensor):
            stack += [obj.data, obj.grad]
        elif isinstance(obj, ad.Tape):
            stack += obj.entries
        elif isinstance(obj, ad._TapeEntry):
            stack += [obj.output, obj.inputs, obj.backward_fn]
        elif callable(obj) and getattr(obj, "__closure__", None):
            stack += [cell.cell_contents for cell in obj.__closure__]
        elif isinstance(obj, (list, tuple, set)):
            stack += obj
        elif isinstance(obj, dict):
            stack += obj.values()
    return sum(nbytes for key, nbytes in owners.items() if key not in params)
