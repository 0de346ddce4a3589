"""Graph data model: ingestion, batching, augmentation, synthetic tasks.

Graphs are stored as explicit directed edge lists; undirected graphs carry
both directed pairs so every aggregation operator can treat in-edges
uniformly. All containers are immutable after construction and safe to
share across workers. Loading rejects a record with a value numpy would
coerce or a feature width unlike the file's, naming its line. Every file
the package reads goes through :func:`read_bytes` (or :func:`read_text`,
:func:`read_json` and :func:`read_json_lines` on top of it, the last the one
line reader of the dataset and the search history), and every JSON file it
reads then through :func:`fields`. Every file it writes goes through
:func:`write_bytes` (or :func:`write_json` and :func:`write_json_lines` on top
of it), which turns an OS error into a ValueError naming the file. A block
run inside :func:`located` names where its bad value came from, such as
``dataset line 3``, in front of any ValueError it raises.
"""

from __future__ import annotations

import io
import json
import math
import reprlib
import weakref
from contextlib import contextmanager
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .autodiff import SegmentIndex

TASK_TYPES = ("binary", "multi-binary", "multi-class")

MISSING = float("nan")  # sentinel for absent multi-binary targets


class ValidationError(ValueError):
    """A graph, a dataset or a JSON file violates a structural invariant."""


class ParseError(ValueError):
    """A line of a JSON-lines file, the dataset or a search history, could
    not be decoded."""


@dataclass(frozen=True)
class TaskSchema:
    """What kind of labels a dataset carries.

    num_tasks matters for multi-binary targets, num_classes for
    multi-class; both default to the single binary task.
    """
    task_type: str = "binary"
    num_tasks: int = 1
    num_classes: int = 2

    def __post_init__(self):
        if self.task_type not in TASK_TYPES:
            raise ValidationError(f"unknown task type {self.task_type!r}; expected one of {TASK_TYPES}")
        if self.task_type == "multi-binary" and self.num_tasks < 1:
            raise ValidationError("multi-binary schema needs num_tasks >= 1")
        if self.task_type == "multi-class" and self.num_classes < 2:
            raise ValidationError("multi-class schema needs num_classes >= 2")


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class Graph:
    """One graph: node features, directed edge list, optional extras.

    label is a float vector: length 1 for binary (0/1) and multi-class
    (the class index), length K for multi-binary with NaN marking a
    missing target.
    """
    node_features: np.ndarray          # N x d_in
    edges: np.ndarray                  # E x 2 int64 (src, dst)
    edge_features: np.ndarray | None = None  # E x d_e
    label: np.ndarray | None = None    # (K,) float

    def __post_init__(self):
        nf = _freeze(np.asarray(self.node_features, dtype=np.float64))
        ed = np.asarray(self.edges, dtype=np.int64)
        if ed.shape == (0,):  # an empty list
            ed = ed.reshape(0, 2)
        object.__setattr__(self, "node_features", nf)
        object.__setattr__(self, "edges", _freeze(ed))
        if nf.ndim != 2:
            raise ValidationError(f"node_features must be 2-d, got shape {nf.shape}")
        if ed.ndim != 2 or ed.shape[1] != 2:
            raise ValidationError(f"edges must have shape (E, 2), got shape {ed.shape}")
        n = nf.shape[0]
        if ed.size and (ed.min() < 0 or ed.max() >= n):
            raise ValidationError(f"edge endpoint out of range [0, {n})")
        if self.edge_features is not None:
            ef = _freeze(np.asarray(self.edge_features, dtype=np.float64))
            object.__setattr__(self, "edge_features", ef)
            if ef.ndim != 2:
                raise ValidationError(f"edge_features must be 2-d, got shape {ef.shape}")
            if ef.shape[0] != ed.shape[0]:
                raise ValidationError(
                    f"edge_features rows ({ef.shape[0]}) != edge count ({ed.shape[0]})")
        if self.label is not None:
            lab = _freeze(np.asarray(self.label, dtype=np.float64).reshape(-1))
            object.__setattr__(self, "label", lab)

    @property
    def num_nodes(self) -> int:
        return self.node_features.shape[0]


@dataclass(frozen=True)
class GraphBatch:
    """Block-diagonal concatenation of graphs with a node-to-graph map.

    The batch builds its index plan once: ``src`` and ``dst`` (the edge
    endpoints), ``loop_src`` and ``loop_dst`` (the same plus one self-loop
    per node, as GAT attends) and ``graph_index`` (``graph_ids``), each a
    read-only int64 array checked once and handed out as an
    :class:`autodiff.SegmentIndex`. While a tape or a call holds an index,
    every op of the batch gets that one and shares its memos; once none
    does, it goes with them, so no memo outlives the step that filled it.
    """
    node_features: np.ndarray          # (sum N_i) x d_in
    edges: np.ndarray                  # (sum E_i) x 2, offset-adjusted
    graph_ids: np.ndarray              # (sum N_i,) int64, non-decreasing
    labels: np.ndarray                 # B x K float
    node_counts: np.ndarray            # (B,) nodes per graph
    edge_features: np.ndarray | None = None

    def __post_init__(self):
        for name in ("node_features", "edges", "graph_ids", "labels", "node_counts"):
            object.__setattr__(self, name, _freeze(np.asarray(getattr(self, name))))
        if self.edge_features is not None:
            object.__setattr__(self, "edge_features",
                               _freeze(np.asarray(self.edge_features, dtype=np.float64)))
        n = self.node_features.shape[0]
        loop = np.arange(n, dtype=np.int64)
        e = self.edges.shape[0]
        plan = {"graph_index": SegmentIndex(self.graph_ids, self.num_graphs)}
        for name, col in (("src", 0), ("dst", 1)):
            with_loops = _freeze(np.concatenate([self.edges[:, col], loop]))
            # the plain version is the first e ids of the self-loop one
            plan[name] = SegmentIndex(with_loops[:e], n)
            plan[f"loop_{name}"] = SegmentIndex(with_loops, n)
        object.__setattr__(self, "_plan", plan)
        object.__setattr__(self, "_in_use", {})  # name -> weak reference to its index
        # cached degree vectors shared by the aggregation operators
        in_deg = np.bincount(plan["dst"].ids, minlength=n).astype(np.float64)
        object.__setattr__(self, "in_degrees", _freeze(in_deg))
        object.__setattr__(self, "degrees",
                           _freeze(_undirected_degrees(self.edges, n).astype(np.float64)))

    def _index(self, name: str) -> SegmentIndex:
        ref = self._in_use.get(name)
        index = None if ref is None else ref()
        if index is None:
            index = self._plan[name].copy()
            self._in_use[name] = weakref.ref(index)
        return index

    src = property(lambda self: self._index("src"))
    dst = property(lambda self: self._index("dst"))
    loop_src = property(lambda self: self._index("loop_src"))
    loop_dst = property(lambda self: self._index("loop_dst"))
    graph_index = property(lambda self: self._index("graph_index"))

    @property
    def num_nodes(self) -> int:
        return self.node_features.shape[0]

    @property
    def num_graphs(self) -> int:
        # not graph_ids.max() + 1, which drops trailing zero-node graphs
        return len(self.node_counts)


@dataclass(frozen=True)
class Dataset:
    graphs: list
    schema: TaskSchema
    splits: dict

    def __post_init__(self):
        all_idx = np.concatenate([np.asarray(v, dtype=np.int64) for v in self.splits.values()]) \
            if self.splits else np.zeros(0, dtype=np.int64)
        if len(all_idx) != len(set(all_idx.tolist())):
            raise ValidationError("splits overlap")
        if set(all_idx.tolist()) != set(range(len(self.graphs))):
            raise ValidationError("splits must cover all graph indices exactly once")

    def split_graphs(self, name: str) -> list:
        """The graphs of split ``name``; none if the splits do not name it."""
        return [self.graphs[i] for i in self.splits.get(name, ())]

    @property
    def num_node_features(self) -> int:
        return self.graphs[0].node_features.shape[1]

    @property
    def num_edge_features(self) -> int:
        g = self.graphs[0]
        return 0 if g.edge_features is None else g.edge_features.shape[1]


# ---------------------------------------------------------------------------
# degrees


def _undirected_degrees(edges: np.ndarray, num_nodes: int) -> np.ndarray:
    """Degree counting each undirected pair once; a self-loop adds one."""
    deg = np.zeros(num_nodes, dtype=np.int64)
    if edges.size == 0:
        return deg
    lo = np.minimum(edges[:, 0], edges[:, 1])
    hi = np.maximum(edges[:, 0], edges[:, 1])
    pairs = np.unique(lo * np.int64(num_nodes) + hi)
    a = pairs // num_nodes
    b = pairs % num_nodes
    np.add.at(deg, a, 1)
    loops = a == b
    np.add.at(deg, b[~loops], 1)
    return deg


# ---------------------------------------------------------------------------
# batching


def batch_graphs(graphs: list) -> GraphBatch:
    """Concatenate graphs block-diagonally, offsetting edge indices."""
    if not graphs:
        raise ValidationError("cannot batch an empty graph list")
    d_in = graphs[0].node_features.shape[1]
    has_ef = graphs[0].edge_features is not None
    d_e = graphs[0].edge_features.shape[1] if has_ef else 0
    for g in graphs:
        if g.node_features.shape[1] != d_in:
            raise ValidationError(
                f"mixed node feature widths: {d_in} vs {g.node_features.shape[1]}")
        if (g.edge_features is not None) != has_ef or \
                (has_ef and g.edge_features.shape[1] != d_e):
            raise ValidationError("mixed edge feature presence or widths")

    node_counts = np.array([g.num_nodes for g in graphs], dtype=np.int64)
    offsets = np.concatenate([[0], np.cumsum(node_counts)[:-1]])

    feats = np.concatenate([g.node_features for g in graphs], axis=0)
    edges = np.concatenate([g.edges + off for g, off in zip(graphs, offsets)], axis=0)
    gids = np.repeat(np.arange(len(graphs), dtype=np.int64), node_counts)
    labels = np.stack([g.label for g in graphs], axis=0)
    efeats = np.concatenate([g.edge_features for g in graphs], axis=0) if has_ef else None

    return GraphBatch(node_features=feats, edges=edges, graph_ids=gids,
                      labels=labels, edge_features=efeats,
                      node_counts=node_counts)


# ---------------------------------------------------------------------------
# augmentation


def add_virtual_node(g: Graph) -> Graph:
    """Append one zero-featured node connected both ways to every node.

    Not idempotent: applying twice adds two virtual nodes.
    """
    n = g.num_nodes
    feats = np.concatenate([g.node_features,
                            np.zeros((1, g.node_features.shape[1]))], axis=0)
    new_edges = np.empty((2 * n, 2), dtype=np.int64)
    new_edges[0::2, 0] = n          # (v, u)
    new_edges[0::2, 1] = np.arange(n)
    new_edges[1::2, 0] = np.arange(n)
    new_edges[1::2, 1] = n          # (u, v)
    edges = np.concatenate([g.edges, new_edges], axis=0)
    ef = None
    if g.edge_features is not None:
        ef = np.concatenate([g.edge_features,
                             np.zeros((2 * n, g.edge_features.shape[1]))], axis=0)
    return Graph(node_features=feats, edges=edges, edge_features=ef, label=g.label)


# ---------------------------------------------------------------------------
# JSON-lines IO


def _parse_record(obj: dict, schema: TaskSchema, may_hold_bool: bool) -> Graph:
    """One graph from a decoded line. ``may_hold_bool`` says the line
    holds a ``true`` or ``false``, which numpy would read as 1 or 0
    inside a numeric array, so each array value is then checked."""
    try:
        n = obj["num_nodes"]
        node_feat = np.asarray(obj["node_feat"])
        edges = np.asarray(obj["edges"])  # required: [] for a graph with no edges
        raw_ef = obj.get("edge_feat")
        edge_feat = None if raw_ef is None else np.asarray(raw_ef)
        # load_dataset sets the width of an empty "node_feat": [] or "edge_feat": []
        if node_feat.shape == (0,):
            node_feat = node_feat.reshape(0, 0)
        if edge_feat is not None and edge_feat.shape == (0,):
            edge_feat = edge_feat.reshape(0, 0)
        raw_label = obj["label"]
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"malformed graph record ({exc})") from exc

    if may_hold_bool:
        for what in ("node_feat", "edges", "edge_feat"):
            if _holds_bool(obj.get(what)):
                raise ParseError(f"{what} must hold numbers only")
    if not KINDS["float"](n):
        raise ParseError(f"num_nodes must be a number, got {n!r}")
    if not float(n).is_integer():
        raise ValidationError(f"num_nodes must be a whole number, got {n}")
    n = int(n)
    _check_numbers(node_feat, "node_feat")
    _check_numbers(edges, "edges", whole=True)
    if edge_feat is not None:
        _check_numbers(edge_feat, "edge_feat")
    if node_feat.ndim != 2 or node_feat.shape[0] != n:
        raise ValidationError(f"node_feat shape {node_feat.shape} does not match num_nodes {n}")
    return Graph(node_features=node_feat, edges=edges, edge_features=edge_feat,
                 label=_parse_label(raw_label, schema))


def _check_numbers(arr: np.ndarray, what: str, whole: bool = False) -> None:
    """Reject what numpy would silently coerce: strings, booleans, nulls,
    NaN and Infinity (which Python's json reads), and, when ``whole``,
    fractions that a cast to int would truncate."""
    if arr.size and arr.dtype.kind not in "iuf":
        raise ParseError(f"{what} must hold numbers only")
    if arr.dtype.kind == "f":
        if not np.isfinite(arr).all():
            raise ValidationError(f"{what} holds a non-finite value")
        if whole and (arr % 1.0).any():
            raise ValidationError(f"{what} must hold whole numbers")


def _holds_bool(raw) -> bool:
    if isinstance(raw, list):
        return any(_holds_bool(v) for v in raw)
    return isinstance(raw, bool)


# What each kind of JSON value accepts, as Python's json module decodes
# it. Python counts a bool as an int, so the number kinds refuse bools;
# a float takes an int too but not NaN or Infinity, which json reads.
KINDS = {
    "int": lambda v: isinstance(v, int) and not isinstance(v, bool),
    "float": lambda v: KINDS["int"](v) or isinstance(v, float) and math.isfinite(v),
    "bool": lambda v: isinstance(v, bool),
    "str": lambda v: isinstance(v, str),
    "list": lambda v: isinstance(v, list),
    "object": lambda v: isinstance(v, dict),
}


def read_bytes(path, what: str) -> bytes:
    """The bytes of the file at ``path``; a missing or unreadable file
    raises a ValueError naming the ``what`` file."""
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except FileNotFoundError:
        raise ValueError(f"{what} file not found: {path}") from None
    except OSError as exc:  # a directory, say
        raise ValueError(f"cannot read {what} file {path}: {exc.strerror}") from None


def read_text(path, what: str) -> str:
    """The text of the UTF-8 file at ``path``: :func:`read_bytes`, then a
    ValueError naming the ``what`` file if the bytes are not UTF-8."""
    try:
        return read_bytes(path, what).decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ValueError(f"{what} file {path} is not UTF-8 ({exc.reason} at byte "
                         f"{exc.start})") from None


def read_json(path, what: str):
    """The JSON value in the file at ``path``: :func:`read_text`, then a
    ValueError naming the ``what`` file if the text is not valid JSON."""
    text = read_text(path, what)
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"{what} file {path} is not valid JSON: {exc}") from None


def read_json_lines(path, what: str):
    """``(line number, line, value)`` for each non-blank line of the UTF-8
    file at ``path``, the line stripped and ``value`` its JSON value; a line
    that is not JSON raises a ParseError naming ``<what> line N``. Lines end
    as in a text-mode file: str.splitlines would also split at U+2028 or
    U+0085, which a record's string may hold."""
    for lineno, line in enumerate(io.StringIO(read_text(path, what), newline=None), 1):
        line = line.strip()
        if not line:
            continue
        try:
            value = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ParseError(f"{what} line {lineno}: {exc.msg} (column {exc.colno})") from None
        yield lineno, line, value


def write_bytes(path, data: bytes) -> None:
    """``data`` into the file at ``path``, its directory made if missing; an
    OS error, such as a regular file where a directory should be, raises a
    ValueError naming the file."""
    parent = Path(path).parent
    try:
        if not parent.exists():  # a file in its place is left for open to name
            parent.mkdir(parents=True, exist_ok=True)
        with open(path, "wb") as fh:
            fh.write(data)
    except OSError as exc:
        raise ValueError(f"cannot write file {path}: {exc.strerror}") from None


def write_json(path, obj, indent=None) -> None:
    """``obj`` as one JSON value and a newline, in UTF-8, into the file at
    ``path`` by :func:`write_bytes`. Keys are sorted and the value is
    compact or indented by ``indent`` spaces, so a rerun writes the same
    bytes."""
    write_bytes(path, (json.dumps(obj, sort_keys=True, indent=indent,
                                  separators=(",", ":" if indent is None else ": "))
                       + "\n").encode("utf-8"))


def write_json_lines(path, records) -> None:
    """Each of ``records`` as one compact line, as :func:`write_json` writes it."""
    write_bytes(path, "".join(json.dumps(rec, sort_keys=True, separators=(",", ":")) + "\n"
                              for rec in records).encode("utf-8"))


@contextmanager
def located(where: str):
    """Re-raise a ValueError from the block as the same class, its message
    now starting with ``where: ``, the place its bad value came from."""
    try:
        yield
    except ValueError as exc:
        raise type(exc)(f"{where}: {exc}") from exc


def fields(obj, table: dict, where: str, optional=()) -> dict:
    """``obj``, checked against ``table``, which maps each key to the name
    of its kind in :data:`KINDS` (other kind names, such as ``"str | None"``,
    are not checked): it must be an object that has every key of ``table``
    but those in ``optional``, no other key, and each value of its kind.
    A ValidationError names ``where``, the key and the value."""
    if not isinstance(obj, dict):
        raise ValidationError(f"{where}: not a JSON object, got {reprlib.repr(obj)}")
    for key, value in obj.items():
        if key not in table:
            raise ValidationError(f"{where}: unknown key {key!r}; expected one of {list(table)}")
        fits = KINDS.get(table[key])
        if fits is not None and not fits(value):
            raise ValidationError(f"{where}: {key} must be {table[key]}, "
                                  f"got {reprlib.repr(value)}")
    for key in table:
        if key not in obj and key not in optional:
            raise ValidationError(f"{where}: lacks {key!r}")
    return obj


def _parse_label(raw, schema: TaskSchema) -> np.ndarray:
    if schema.task_type == "multi-binary":
        if not isinstance(raw, list) or len(raw) != schema.num_tasks:
            raise ValidationError(f"expected a {schema.num_tasks}-entry label vector")
        vals = [MISSING if v is None else v for v in raw]
        # a NaN entry (v != v) is missing, like null
        if not all(v != v or KINDS["float"](v) and v in (0, 1) for v in vals):
            raise ValidationError("multi-binary entries must be 0, 1 or null")
        return np.array(vals, dtype=np.float64)
    if not KINDS["float"](raw):
        raise ValidationError(f"{schema.task_type} label must be a number, got {raw!r}")
    val = float(raw)
    if schema.task_type == "binary":
        if val not in (0.0, 1.0):
            raise ValidationError(f"binary label must be 0 or 1, got {raw}")
    else:
        if not val.is_integer() or not 0 <= val < schema.num_classes:
            raise ValidationError(f"class index must be an integer in [0, {schema.num_classes})")
    return np.array([val])


def _check_layout(g: Graph, lineno: int, seen: dict) -> None:
    """Reject a record whose feature layout differs from an earlier one's.

    ``seen`` maps each property to its value and line in the first record
    that fixed it. A zero-node ``"node_feat": []`` record fixes no node
    width, and an edgeless ``"edge_feat": []`` record no edge width.
    """
    ef = g.edge_features
    layout = {}
    if g.node_features.shape != (0, 0):
        layout["node_feat width"] = g.node_features.shape[1]
    layout["edge_feat presence"] = ef is not None
    if ef is not None and ef.shape != (0, 0):
        layout["edge_feat width"] = ef.shape[1]
    for prop, value in layout.items():
        first, first_line = seen.setdefault(prop, (value, lineno))
        if value != first:
            raise ValidationError(f"{prop} {value} differs from {first} on line {first_line}")


def load_dataset(path, schema: TaskSchema, splits_path=None,
                 symmetrize: bool = True) -> Dataset:
    """Load a JSON-lines graph file, preserving file order.

    Edge lists are normalized to the both-directions convention unless
    ``symmetrize`` is off: any directed pair lacking its reverse gets the
    reverse appended (copying the edge features). Splits come from the
    JSON file at ``splits_path``; when omitted, a contiguous 80/10/10
    split over file order is used. Every record must give its features
    the first record's widths (and carry ``edge_feat`` if it does) and
    hold only finite numbers, whole ones for edge endpoints; a record
    that does not is rejected as ``dataset line N: ...``.
    """
    graphs = []
    seen = {}
    for lineno, line, obj in read_json_lines(path, "dataset"):
        with located(f"dataset line {lineno}"):
            g = _parse_record(obj, schema, "true" in line or "false" in line)
            _check_layout(g, lineno, seen)
        if symmetrize:
            g = _symmetrize(g)
        graphs.append(g)
    if not graphs:
        raise ValidationError(f"{path}: no graph records found")
    # a zero-node record's "node_feat": [] and an edgeless record's
    # "edge_feat": [] take the row widths of the others
    d_node = seen.get("node_feat width", (0,))[0]
    d_edge = seen.get("edge_feat width", (0,))[0]
    graphs = [_set_empty_widths(g, d_node, d_edge) for g in graphs]

    if splits_path is not None:
        splits = _parse_splits(read_json(splits_path, "splits"), len(graphs),
                               f"splits file {splits_path}")
    else:
        splits = contiguous_split(len(graphs))
    return Dataset(graphs=graphs, schema=schema, splits=splits)


SPLITS = {"train": "list", "valid": "list", "test": "list"}


def _parse_splits(raw, n: int, where: str) -> dict:
    """Split name -> index array; a split may be left out, and each list
    must hold whole numbers in [0, n), which rules out the bools and
    fractions numpy would cast."""
    for name, idx in fields(raw, SPLITS, where, optional=SPLITS).items():
        bad = [i for i in idx if not (KINDS["float"](i) and 0 <= i < n and float(i).is_integer())]
        if bad:
            raise ValidationError(f"{where}: split {name!r} must be a list of whole-number "
                                  f"graph indices in [0, {n}), got {bad[0]!r}")
    return {name: np.asarray(idx, dtype=np.int64) for name, idx in raw.items()}


def _set_empty_widths(g: Graph, d_node: int, d_edge: int) -> Graph:
    if g.node_features.shape == (0, 0):
        g = replace(g, node_features=np.zeros((0, d_node)))
    if g.edge_features is not None and g.edge_features.shape == (0, 0):
        g = replace(g, edge_features=np.zeros((0, d_edge)))
    return g


def _symmetrize(g: Graph) -> Graph:
    src, dst = g.edges[:, 0], g.edges[:, 1]
    n = np.int64(g.num_nodes)
    present = np.sort(src * n + dst)
    reverse = dst * n + src
    # the clipped lookup also serves the empty edge list: no rows to index
    found = present[np.minimum(np.searchsorted(present, reverse), present.size - 1)] == reverse
    missing = np.flatnonzero((src != dst) & ~found)
    if not missing.size:
        return g
    extra = g.edges[missing][:, ::-1]
    edges = np.concatenate([g.edges, extra], axis=0)
    ef = None
    if g.edge_features is not None:
        ef = np.concatenate([g.edge_features, g.edge_features[missing]], axis=0)
    return Graph(node_features=g.node_features, edges=edges,
                 edge_features=ef, label=g.label)


def write_dataset(dataset: Dataset, path, splits_path) -> None:
    """Write the JSON-lines graph file plus the splits file."""
    write_json_lines(path, ({
        "num_nodes": g.num_nodes,
        "node_feat": g.node_features.tolist(),
        "edges": g.edges.tolist(),
        "edge_feat": None if g.edge_features is None else g.edge_features.tolist(),
        "label": _label_to_json(g.label, dataset.schema),
    } for g in dataset.graphs))
    write_json(splits_path, {k: np.asarray(v).tolist() for k, v in dataset.splits.items()})


def _label_to_json(label: np.ndarray, schema: TaskSchema):
    if schema.task_type == "multi-binary":
        return [None if np.isnan(v) else v for v in label.tolist()]
    val = float(label[0])
    return int(val) if schema.task_type == "multi-class" else val


def contiguous_split(n: int) -> dict:
    n_va = max(1, round(0.1 * n)) if n >= 3 else 0
    n_te = n_va
    idx = np.arange(n, dtype=np.int64)
    return {"train": idx[:n - n_va - n_te],
            "valid": idx[n - n_va - n_te:n - n_te],
            "test": idx[n - n_te:]}


# ---------------------------------------------------------------------------
# synthetic task generation


@dataclass(frozen=True)
class SyntheticSpec:
    """Built-in generator settings: random graphs with exact structural labels."""
    task: str                       # "triangle-threshold" or "degree-parity"
    num_graphs: int = 500
    min_nodes: int = 8
    max_nodes: int = 16
    edge_prob: float = 0.25
    triangle_threshold: int = 3

    def __post_init__(self):
        if self.task not in ("triangle-threshold", "degree-parity"):
            raise ValidationError(f"unknown synthetic task {self.task!r}")
        if self.num_graphs < 10:
            raise ValidationError("num_graphs must be at least 10 (splits need every part non-empty)")
        if not (1 <= self.min_nodes <= self.max_nodes):
            raise ValidationError("need 1 <= min_nodes <= max_nodes")
        if not (0.0 < self.edge_prob <= 1.0):
            raise ValidationError("edge_prob must be in (0, 1]")
        if self.triangle_threshold < 1:
            raise ValidationError("triangle_threshold must be >= 1")


def count_triangles(edges: np.ndarray, num_nodes: int) -> int:
    """Exact triangle count via the cubed 0/1 adjacency matrix."""
    adj = np.zeros((num_nodes, num_nodes))
    if edges.size:
        adj[edges[:, 0], edges[:, 1]] = 1.0
        adj[edges[:, 1], edges[:, 0]] = 1.0
    np.fill_diagonal(adj, 0.0)
    return int(round(np.trace(adj @ adj @ adj) / 6.0))


def generate_synthetic(spec: SyntheticSpec, seed: int) -> Dataset:
    """Deterministic random-graph dataset with exactly computed labels.

    Node features are [1, degree]. Undirected edges are stored as both
    directed pairs. Splits are stratified 80/10/10.
    """
    rng = np.random.default_rng([int(seed), 0x5F3A])
    graphs = []
    for _ in range(spec.num_graphs):
        n = int(rng.integers(spec.min_nodes, spec.max_nodes + 1))
        upper = rng.random((n, n)) < spec.edge_prob
        src, dst = np.nonzero(np.triu(upper, k=1))
        edges = np.empty((2 * src.size, 2), dtype=np.int64)
        edges[0::2, 0], edges[0::2, 1] = src, dst
        edges[1::2, 0], edges[1::2, 1] = dst, src

        deg = _undirected_degrees(edges, n)
        feats = np.stack([np.ones(n), deg.astype(np.float64)], axis=1)
        if spec.task == "triangle-threshold":
            label = 1.0 if count_triangles(edges, n) >= spec.triangle_threshold else 0.0
        else:
            label = float(int(deg.sum()) % 2)
        graphs.append(Graph(node_features=feats, edges=edges, label=np.array([label])))

    labels = np.array([float(g.label[0]) for g in graphs])
    splits = stratified_split(labels, rng=np.random.default_rng([int(seed), 0x51D5]))
    return Dataset(graphs=graphs, schema=TaskSchema("binary"), splits=splits)


def stratified_split(labels: np.ndarray, rng: np.random.Generator) -> dict:
    """80/10/10 split preserving class proportions (largest remainder)."""
    n = len(labels)
    n_va = n_te = round(0.1 * n)
    classes = np.unique(labels)
    per_class = {c: rng.permutation(np.flatnonzero(labels == c)) for c in classes}

    def allocate(total: int, pools: dict) -> dict:
        sizes = {c: len(v) for c, v in pools.items()}
        total_pool = sum(sizes.values())
        exact = {c: total * sizes[c] / total_pool for c in pools}
        counts = {c: int(exact[c]) for c in pools}
        short = total - sum(counts.values())
        by_rem = sorted(pools, key=lambda c: (-(exact[c] - counts[c]), c))
        for c in by_rem[:short]:
            counts[c] += 1
        return counts

    valid_idx, test_idx, train_idx = [], [], []
    va_counts = allocate(n_va, per_class)
    remaining = {c: v[va_counts[c]:] for c, v in per_class.items()}
    for c, v in per_class.items():
        valid_idx.extend(v[:va_counts[c]].tolist())
    te_counts = allocate(n_te, remaining)
    for c, v in remaining.items():
        test_idx.extend(v[:te_counts[c]].tolist())
        train_idx.extend(v[te_counts[c]:].tolist())

    return {"train": np.sort(np.array(train_idx, dtype=np.int64)),
            "valid": np.sort(np.array(valid_idx, dtype=np.int64)),
            "test": np.sort(np.array(test_idx, dtype=np.int64))}
