"""Resolved networks as dataflow graphs, and a builder for constructing them.

A :class:`Network` is a dataflow-graph IR: a list of :class:`LayerInstance`
objects, each bound to concrete input/output shapes and carrying explicit
``inputs`` edges naming its producers (:data:`NETWORK_INPUT` stands for the
network input).  Linear chains are the one-edge-per-node special case;
branching topologies (ResNet residual joins, SqueezeNet fire-module
concatenations) are first-class — :class:`~repro.nn.layers.ElementwiseAdd`
and :class:`~repro.nn.layers.Concat` consume several named producers.

Construction validates the graph: duplicate node names, dangling producers,
cycles and shape mismatches at merge points are all rejected with errors
that name the offending layers.  Consumers traverse the graph through
:meth:`Network.topological_order` (deterministic: among ready nodes the
lowest declaration index runs first, so a chain-declared network executes
in declaration order) and free intermediate results via
:meth:`Network.consumers` liveness information.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.nn.layers import (
    BatchNorm,
    Concat,
    Conv2D,
    ElementwiseAdd,
    Flatten,
    FullyConnected,
    GlobalAvgPool,
    Layer,
    Pool2D,
    ReLU,
    TensorShape,
)

#: sentinel producer name standing for the network input tensor
NETWORK_INPUT = "@input"


class GraphError(ValueError):
    """A malformed network graph (cycle, dangling producer, bad merge, ...).

    Every message names the offending layer(s) so a model-zoo bug points
    straight at the node that caused it.
    """


@dataclass(frozen=True)
class LayerInstance:
    """A layer bound to concrete input and output shapes.

    ``inputs`` names the producer node(s) this instance consumes, in
    operand order (:data:`NETWORK_INPUT` for the network input);
    ``input_shapes`` mirrors it.  ``input_shape`` is the primary (first)
    operand's shape, which is what single-input layers and the MAC/weight
    accounting consume.  Instances created without edges are wired to the
    preceding list entry by :class:`Network` (the legacy sequential view).
    """

    layer: Layer
    input_shape: TensorShape
    output_shape: TensorShape
    index: int
    inputs: Tuple[str, ...] = ()
    input_shapes: Tuple[TensorShape, ...] = ()

    @property
    def name(self) -> str:
        return self.layer.name

    @property
    def kind(self) -> str:
        return self.layer.kind

    @property
    def macs(self) -> int:
        return self.layer.macs(self.input_shape)

    @property
    def weights(self) -> int:
        return self.layer.weight_count()

    @property
    def is_compute(self) -> bool:
        return self.layer.is_compute


class Network:
    """A shape-resolved DNN dataflow graph."""

    def __init__(self, name: str, input_shape: TensorShape, instances: Iterable[LayerInstance]):
        self.name = name
        self.input_shape = input_shape
        self._instances: List[LayerInstance] = self._wire(list(instances))
        if not self._instances:
            raise GraphError(f"network {name!r} must contain at least one layer")
        self._by_name: Dict[str, LayerInstance] = {}
        for inst in self._instances:
            if inst.name == NETWORK_INPUT:
                raise GraphError(
                    f"layer name {NETWORK_INPUT!r} is reserved for the network input"
                )
            if inst.name in self._by_name:
                raise GraphError(
                    f"duplicate layer name {inst.name!r} "
                    f"(indices {self._by_name[inst.name].index} and {inst.index})"
                )
            self._by_name[inst.name] = inst
        self._topo_order = self._sort_topologically()
        self._validate_shapes()
        self._consumers = self._build_consumers()

    @staticmethod
    def _wire(instances: List[LayerInstance]) -> List[LayerInstance]:
        """Fill missing edges: an instance without ``inputs`` consumes its
        list predecessor (the legacy flat-sequential construction)."""
        wired: List[LayerInstance] = []
        previous = NETWORK_INPUT
        for inst in instances:
            if not inst.inputs:
                inst = replace(
                    inst, inputs=(previous,), input_shapes=(inst.input_shape,)
                )
            previous = inst.name
            wired.append(inst)
        return wired

    def _sort_topologically(self) -> List[LayerInstance]:
        """Deterministic Kahn sort; raises :class:`GraphError` on cycles and
        dangling producers, naming the layers involved."""
        indegree: Dict[str, int] = {inst.name: 0 for inst in self._instances}
        dependents: Dict[str, List[str]] = {inst.name: [] for inst in self._instances}
        for inst in self._instances:
            for src in inst.inputs:
                if src == NETWORK_INPUT:
                    continue
                if src not in self._by_name:
                    raise GraphError(
                        f"layer {inst.name!r} consumes {src!r}, which no layer "
                        "produces (dangling producer)"
                    )
                if src == inst.name:
                    raise GraphError(f"layer {inst.name!r} consumes itself")
                indegree[inst.name] += 1
                dependents[src].append(inst.name)
        # among ready nodes, the lowest declaration index runs first — this
        # makes the order deterministic and equal to declaration order for
        # any graph whose declaration order is already topological
        ready = sorted(
            (name for name, deg in indegree.items() if deg == 0),
            key=lambda n: self._by_name[n].index,
        )
        order: List[LayerInstance] = []
        while ready:
            name = ready.pop(0)
            order.append(self._by_name[name])
            freed = []
            for dep in dependents[name]:
                indegree[dep] -= 1
                if indegree[dep] == 0:
                    freed.append(dep)
            if freed:
                ready = sorted(
                    ready + freed, key=lambda n: self._by_name[n].index
                )
        if len(order) != len(self._instances):
            stuck = sorted(
                (name for name, deg in indegree.items() if deg > 0),
                key=lambda n: self._by_name[n].index,
            )
            raise GraphError(
                f"network {self.name!r} contains a cycle through layers: "
                f"{', '.join(repr(n) for n in stuck)}"
            )
        return order

    def _validate_shapes(self) -> None:
        """Check every edge's shape and every node's resolved output shape."""
        produced: Dict[str, TensorShape] = {NETWORK_INPUT: self.input_shape}
        updated: Dict[str, LayerInstance] = {}
        for inst in self._topo_order:
            shapes = tuple(produced[src] for src in inst.inputs)
            if inst.input_shapes and inst.input_shapes != shapes:
                raise GraphError(
                    f"layer {inst.name!r} was resolved against input shapes "
                    f"{tuple(str(s) for s in inst.input_shapes)}, but its "
                    f"producers ({', '.join(repr(s) for s in inst.inputs)}) "
                    f"output {tuple(str(s) for s in shapes)}"
                )
            try:
                output = inst.layer.resolve_shape(shapes)
            except ValueError as exc:
                raise GraphError(str(exc)) from exc
            if output != inst.output_shape:
                raise GraphError(
                    f"layer {inst.name!r} resolves to output {output}, but the "
                    f"instance records {inst.output_shape}"
                )
            if not inst.input_shapes or inst.input_shape != shapes[0]:
                updated[inst.name] = replace(
                    inst, input_shape=shapes[0], input_shapes=shapes
                )
            produced[inst.name] = output
        if updated:
            self._instances = [
                updated.get(inst.name, inst) for inst in self._instances
            ]
            self._by_name = {inst.name: inst for inst in self._instances}
            self._topo_order = [
                self._by_name[inst.name] for inst in self._topo_order
            ]

    def _build_consumers(self) -> Dict[str, Tuple[str, ...]]:
        consumers: Dict[str, List[str]] = {NETWORK_INPUT: []}
        for inst in self._instances:
            consumers.setdefault(inst.name, [])
        for inst in self._topo_order:
            for src in inst.inputs:
                consumers[src].append(inst.name)
        return {name: tuple(names) for name, names in consumers.items()}

    # -- container protocol -------------------------------------------------
    def __len__(self) -> int:
        return len(self._instances)

    def __iter__(self) -> Iterator[LayerInstance]:
        return iter(self._instances)

    def __getitem__(self, index: int) -> LayerInstance:
        return self._instances[index]

    # -- graph views ---------------------------------------------------------
    def topological_order(self) -> List[LayerInstance]:
        """Instances in deterministic topological order (producers first;
        ties broken by declaration index)."""
        return list(self._topo_order)

    def consumers(self) -> Dict[str, Tuple[str, ...]]:
        """Map of node name (incl. :data:`NETWORK_INPUT`) to the names of
        the nodes consuming its output — the liveness information executors
        use to free activations after their last consumer has run."""
        return dict(self._consumers)

    @property
    def output(self) -> LayerInstance:
        """The network output node (the last declared instance)."""
        return self._instances[-1]

    @property
    def is_sequential(self) -> bool:
        """True when every node consumes exactly its declaration predecessor."""
        previous = NETWORK_INPUT
        for inst in self._instances:
            if inst.inputs != (previous,):
                return False
            previous = inst.name
        return True

    # -- views ---------------------------------------------------------------
    @property
    def instances(self) -> List[LayerInstance]:
        return list(self._instances)

    @property
    def compute_instances(self) -> List[LayerInstance]:
        """Conv and FC layer instances (the ones mapped onto crossbars)."""
        return [inst for inst in self._instances if inst.is_compute]

    @property
    def output_shape(self) -> TensorShape:
        return self._instances[-1].output_shape

    # -- aggregate statistics -------------------------------------------------
    @property
    def total_macs(self) -> int:
        return sum(inst.macs for inst in self._instances)

    @property
    def total_weights(self) -> int:
        return sum(inst.weights for inst in self._instances)

    @property
    def total_activations(self) -> int:
        """Total output elements produced across all layers."""
        return sum(inst.output_shape.elements for inst in self._instances)

    def find(self, name: str) -> LayerInstance:
        """Return the instance with the given layer name."""
        try:
            return self._by_name[name]
        except KeyError:
            raise KeyError(f"no layer named {name!r} in network {self.name!r}") from None

    def summary(self) -> str:
        """Human-readable per-layer summary (useful in examples and docs).

        Branch edges are shown explicitly: a node whose input is not simply
        the preceding row carries a ``<- producer[, producer]`` annotation.
        """
        lines = [f"Network {self.name}  (input {self.input_shape})"]
        header = f"{'idx':>4}  {'name':<20} {'kind':<8} {'input':<16} {'output':<16} {'MACs':>14} {'weights':>12}"
        lines.append(header)
        lines.append("-" * len(header))
        previous = NETWORK_INPUT
        for inst in self._instances:
            edge = ""
            if inst.inputs != (previous,):
                edge = "  <- " + ", ".join(inst.inputs)
            previous = inst.name
            lines.append(
                f"{inst.index:>4}  {inst.name:<20} {inst.kind:<8} "
                f"{str(inst.input_shape):<16} {str(inst.output_shape):<16} "
                f"{inst.macs:>14,} {inst.weights:>12,}{edge}"
            )
        lines.append("-" * len(header))
        lines.append(
            f"total MACs {self.total_macs:,}   total weights {self.total_weights:,}   "
            f"total activations {self.total_activations:,}"
        )
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Network(name={self.name!r}, layers={len(self)}, macs={self.total_macs:,})"


class NetworkBuilder:
    """Incrementally build a :class:`Network`, tracking the current tip.

    The builder maintains a *tip* — the node whose output the next layer
    consumes.  Linear chains never need to touch it; branching topologies
    record branch points with :meth:`branch`, rewind with :meth:`resume`
    and join with :meth:`add` (residual sum) or :meth:`concat`
    (channel concatenation):

    >>> b = NetworkBuilder("block", TensorShape(8, 8, 8))
    >>> entry = b.branch()
    >>> _ = b.conv(8, 3, name="c1").relu()
    >>> _ = b.add(entry, name="join").relu()
    >>> b.build().find("join").inputs
    ('c1', '@input')
    """

    def __init__(self, name: str, input_shape: TensorShape):
        self.name = name
        self.input_shape = input_shape
        self._tip: str = NETWORK_INPUT
        self._shapes: Dict[str, TensorShape] = {NETWORK_INPUT: input_shape}
        self._instances: List[LayerInstance] = []
        self._counters: dict = {}

    # -- internals -----------------------------------------------------------
    def _auto_name(self, prefix: str) -> str:
        count = self._counters.get(prefix, 0) + 1
        self._counters[prefix] = count
        return f"{prefix}{count}"

    def add_layer(
        self, layer: Layer, inputs: Optional[Sequence[str]] = None
    ) -> "NetworkBuilder":
        """Append a layer consuming ``inputs`` (default: the current tip)."""
        sources = tuple(inputs) if inputs is not None else (self._tip,)
        if layer.name in self._shapes:
            raise GraphError(
                f"duplicate layer name {layer.name!r} in network {self.name!r}"
            )
        shapes = []
        for src in sources:
            if src not in self._shapes:
                raise GraphError(
                    f"layer {layer.name!r} consumes {src!r}, which no layer "
                    "produces (dangling producer)"
                )
            shapes.append(self._shapes[src])
        try:
            output = layer.resolve_shape(shapes)
        except ValueError as exc:
            raise GraphError(str(exc)) from exc
        inst = LayerInstance(
            layer=layer,
            input_shape=shapes[0],
            output_shape=output,
            index=len(self._instances),
            inputs=sources,
            input_shapes=tuple(shapes),
        )
        self._instances.append(inst)
        self._shapes[layer.name] = output
        self._tip = layer.name
        return self

    # -- branch control --------------------------------------------------------
    @property
    def current_shape(self) -> TensorShape:
        return self._shapes[self._tip]

    @property
    def tip(self) -> str:
        """Name of the node the next layer will consume (:data:`NETWORK_INPUT`
        before any layer is added)."""
        return self._tip

    def branch(self) -> str:
        """Record the current tip as a branch point and return its name."""
        return self._tip

    def resume(self, point: str) -> "NetworkBuilder":
        """Rewind the tip to a recorded branch point (or any node name)."""
        if point not in self._shapes:
            raise GraphError(
                f"cannot resume from {point!r}: no such node in network "
                f"{self.name!r}"
            )
        self._tip = point
        return self

    # -- layer helpers ---------------------------------------------------------
    def conv(
        self,
        out_channels: int,
        kernel: int,
        stride: int = 1,
        padding="same",
        groups: int = 1,
        name: Optional[str] = None,
        bias: bool = True,
    ) -> "NetworkBuilder":
        layer = Conv2D(
            name=name or self._auto_name("conv"),
            in_channels=self.current_shape.channels,
            out_channels=out_channels,
            kernel_h=kernel,
            kernel_w=kernel,
            stride=stride,
            padding=padding,
            groups=groups,
            bias=bias,
        )
        return self.add_layer(layer)

    def fc(self, out_features: int, name: Optional[str] = None, bias: bool = True) -> "NetworkBuilder":
        if not self.current_shape.is_flat:
            self.flatten()
        layer = FullyConnected(
            name=name or self._auto_name("fc"),
            in_features=self.current_shape.elements,
            out_features=out_features,
            bias=bias,
        )
        return self.add_layer(layer)

    def pool(
        self,
        kernel: int,
        stride: int = 0,
        mode: str = "max",
        padding=0,
        name: Optional[str] = None,
    ) -> "NetworkBuilder":
        layer = Pool2D(
            name=name or self._auto_name("pool"),
            kernel=kernel,
            stride=stride,
            mode=mode,
            padding=padding,
        )
        return self.add_layer(layer)

    def relu(self, name: Optional[str] = None) -> "NetworkBuilder":
        return self.add_layer(ReLU(name=name or self._auto_name("relu")))

    def batch_norm(self, name: Optional[str] = None) -> "NetworkBuilder":
        return self.add_layer(
            BatchNorm(name=name or self._auto_name("bn"), channels=self.current_shape.channels)
        )

    def flatten(self, name: Optional[str] = None) -> "NetworkBuilder":
        return self.add_layer(Flatten(name=name or self._auto_name("flatten")))

    def global_avg_pool(self, name: Optional[str] = None) -> "NetworkBuilder":
        return self.add_layer(GlobalAvgPool(name=name or self._auto_name("gap")))

    # -- merge helpers ----------------------------------------------------------
    def add(self, *others: str, name: Optional[str] = None) -> "NetworkBuilder":
        """Residual elementwise addition of the current tip with ``others``
        (branch-point names recorded via :meth:`branch`)."""
        layer = ElementwiseAdd(name=name or self._auto_name("add"))
        return self.add_layer(layer, inputs=(self._tip,) + others)

    def concat(self, inputs: Sequence[str], name: Optional[str] = None) -> "NetworkBuilder":
        """Channel-wise concatenation of the named producers (in order)."""
        layer = Concat(name=name or self._auto_name("concat"))
        return self.add_layer(layer, inputs=tuple(inputs))

    # -- finalisation -----------------------------------------------------------
    def build(self) -> Network:
        return Network(self.name, self.input_shape, self._instances)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"NetworkBuilder(name={self.name!r}, layers={len(self._instances)}, shape={self.current_shape})"
