"""The one walk over an autodiff tape that the tape-internal tests share."""

import numpy as np
import pytest

from sfanas import autodiff as ad


class Tape:
    """The tape reachable from ``loss``, each entry once: ``nodes`` holds
    the op nodes, which have a backward function to run, and ``leaves``
    the leaf tensors that need a gradient. Walking it checks that no
    backward function keeps an array, a tensor or a node in its closure,
    so a node's ``saved`` arrays are all that it keeps for its backward."""

    def __init__(self, loss: ad.Tensor):
        self.nodes, self.leaves = [], []
        seen, stack = set(), list(loss._parents)
        if loss._node is not None:
            self.nodes.append(loss._node)
        while stack:
            entry = stack.pop()
            if id(entry) in seen:
                continue
            seen.add(id(entry))
            if isinstance(entry, ad.Tensor):
                self.leaves.append(entry)
            elif entry.backward is not None:
                self.nodes.append(entry)
            stack.extend(entry._parents)
        for node in self.nodes:
            for cell in node.backward.__closure__ or ():
                assert not _arrays(cell.cell_contents, (np.ndarray, ad.Tensor, ad._Node)), \
                    node.backward.__qualname__

    @staticmethod
    def saved(node) -> list:
        """The arrays ``node`` keeps for its backward function."""
        return _arrays(node.saved, (np.ndarray,))

    def saved_arrays(self) -> list:
        """Every array a node of the tape saves, each once by identity."""
        unique = {}
        for node in self.nodes:
            for a in self.saved(node):
                unique.setdefault(id(a), a)
        return list(unique.values())

    def held_arrays(self) -> list:
        """Every array the tape holds: the saved arrays and the leaves' data."""
        return self.saved_arrays() + [t.data for t in self.leaves]


def _arrays(value, kinds) -> list:
    """The objects of ``kinds`` in ``value``, looking into lists and tuples."""
    if isinstance(value, kinds):
        return [value]
    if isinstance(value, (list, tuple)):
        return [a for v in value for a in _arrays(v, kinds)]
    return []


@pytest.fixture
def tape():
    """``tape(loss)`` walks the tape of ``loss``: see :class:`Tape`."""
    return Tape
