"""Unit tests for the spatial compiler: routing, placement, delay matching."""

import hashlib
import itertools
import random
from collections import deque

import pytest
from hypothesis import given, settings, strategies as st

from repro.cgra import MeshNetwork, broadly_provisioned, build_fabric, dnn_provisioned
from repro.core.compiler import (
    CgraConfig,
    DelayMatchError,
    RouterState,
    RoutingError,
    SchedulingError,
    compute_delays,
    map_ports,
    route_value,
    schedule,
)
from repro.core.compiler import scheduler
from repro.core.dfg import DfgBuilder, parse_dfg
from repro.fuzz.case import (
    FUZZ_ANNEAL_ITERATIONS,
    FUZZ_FABRIC,
    FUZZ_SCHEDULE_ATTEMPTS,
)
from repro.fuzz.generators import dfg_from_spec, random_dfg, random_plan
from repro.workloads.dnn import DNN_LAYERS, build_dnn_layer
from repro.workloads.machsuite import MACHSUITE

DOT = parse_dfg(
    "input A 3\ninput B 3\n"
    "m0 = mul A.0 B.0\nm1 = mul A.1 B.1\nm2 = mul A.2 B.2\n"
    "s0 = add m0 m1\ns1 = add s0 m2\noutput C s1",
    "dot3",
)


class TestRouter:
    def test_same_coord_empty_path(self):
        state = RouterState(MeshNetwork(3, 3))
        assert route_value(state, "v", (1, 1), (1, 1)) == []

    def test_path_connects_endpoints(self):
        state = RouterState(MeshNetwork(4, 4))
        path = route_value(state, "v", (0, 0), (3, 3))
        assert path[0][0] == (0, 0)
        assert path[-1][1] == (3, 3)
        for (_src, a), (b, _dst) in zip(path, path[1:]):
            assert a == b
        assert len(path) == 6  # shortest

    def test_multicast_free_reuse(self):
        state = RouterState(MeshNetwork(4, 1, channels=1))
        route_value(state, "v", (0, 0), (3, 0))
        # same value again: reuses the claimed channels at zero extra cost
        path = route_value(state, "v", (0, 0), (2, 0))
        assert len(path) == 2
        assert state.total_channels_used() == 3

    def test_capacity_exhaustion(self):
        state = RouterState(MeshNetwork(2, 1, channels=1))
        route_value(state, "v1", (0, 0), (1, 0))
        with pytest.raises(RoutingError):
            route_value(state, "v2", (0, 0), (1, 0))

    def test_congestion_detour(self):
        # 3x2: block the straight path for a different value, expect detour
        state = RouterState(MeshNetwork(3, 2, channels=1))
        route_value(state, "v1", (0, 0), (1, 0))
        route_value(state, "v2", (1, 0), (2, 0))
        path = route_value(state, "v3", (0, 0), (2, 0))
        assert len(path) == 4  # around through row 1


class TestPortMapping:
    def test_widest_gets_sufficient_port(self):
        mapping = map_ports(DOT, dnn_provisioned())
        fabric = dnn_provisioned()
        for name in ("A", "B"):
            hw = fabric.find_port("in", mapping[name])
            assert hw.width >= 3
        assert fabric.find_port("out", mapping["C"]).width >= 1

    def test_distinct_ports(self):
        mapping = map_ports(DOT, dnn_provisioned())
        assert mapping["A"] != mapping["B"]

    def test_too_many_wide_ports_rejected(self):
        b = DfgBuilder("wide")
        handles = [b.input(f"I{i}", 8) for i in range(4)]
        total = b.reduce_tree("add", [h[0] for h in handles])
        b.output("O", total)
        dfg = b.build()
        fabric = build_fabric(
            "tiny", 2, 2,
            [["alu", "alu"], ["alu", "alu"]],
            input_widths=[8, 8],  # only two wide ports
            output_widths=[1],
        )
        with pytest.raises(SchedulingError, match="vector port"):
            map_ports(dfg, fabric)


class TestDelayMatching:
    def test_balanced_paths_zero_delay(self):
        dfg = parse_dfg(
            "input A 2\nx = add A.0 A.1\noutput O x", "bal"
        )
        hops = {
            ("A", "x", 0): 1,
            ("A.1", "x", 1): 1,
            ("x", "out:O", 0): 1,
        }
        solution = compute_delays(dfg, hops)
        assert all(d == 0 for d in solution.extra_delay.values())
        # operands arrive at 2 (hop+switch), add finishes at 3, output edge
        # adds another hop+switch -> 5
        assert solution.latency == 5

    def test_unbalanced_operand_gets_delay(self):
        dfg = parse_dfg("input A 2\nx = add A.0 A.1\noutput O x", "unbal")
        hops = {
            ("A", "x", 0): 5,
            ("A.1", "x", 1): 1,
            ("x", "out:O", 0): 0,
        }
        solution = compute_delays(dfg, hops)
        assert solution.extra_delay[("A.1", "x", 1)] == 4
        assert solution.extra_delay[("A", "x", 0)] == 0

    def test_excessive_delay_raises(self):
        dfg = parse_dfg("input A 2\nx = add A.0 A.1\noutput O x", "deep")
        hops = {
            ("A", "x", 0): 200,
            ("A.1", "x", 1): 0,
            ("x", "out:O", 0): 0,
        }
        with pytest.raises(DelayMatchError):
            compute_delays(dfg, hops)

    def test_output_lanes_matched(self):
        dfg = parse_dfg(
            "input A 2\nx = pass A.0\ny = pass A.1\noutput O x y", "lanes"
        )
        hops = {
            ("A", "x", 0): 0,
            ("A.1", "y", 0): 0,
            ("x", "out:O", 0): 4,
            ("y", "out:O", 1): 1,
        }
        solution = compute_delays(dfg, hops)
        assert solution.extra_delay[("y", "out:O", 1)] == 3


class TestSchedule:
    def test_dot_product_schedules(self):
        config = schedule(DOT, dnn_provisioned())
        assert isinstance(config, CgraConfig)
        assert len(config.placement) == 5
        assert config.summary().endswith("II 1")

    def test_deterministic_for_seed(self):
        c1 = schedule(DOT, dnn_provisioned(), seed=3)
        c2 = schedule(DOT, dnn_provisioned(), seed=3)
        assert c1.placement == c2.placement

    def test_placement_respects_fu_capability(self):
        config = schedule(DOT, dnn_provisioned())
        for name, coord in config.placement.items():
            inst = DOT.instructions[name]
            assert config.fabric.pes[coord].supports(inst.op.name)

    def test_placement_no_overlap(self):
        config = schedule(DOT, dnn_provisioned())
        coords = list(config.placement.values())
        assert len(coords) == len(set(coords))

    def test_every_edge_routed(self):
        config = schedule(DOT, dnn_provisioned())
        # 10 operand edges (5 two-input instructions) + 1 output edge
        assert len(config.edges) == 11

    def test_latency_covers_op_latency_and_hops(self):
        config = schedule(DOT, dnn_provisioned())
        # mul(2) + add(1) + add(1) = 4 plus at least one switch per edge
        assert config.latency >= 4 + 3

    def test_unsupported_op_rejected(self):
        dfg = parse_dfg("input A\nx = sigmoid A\noutput O x", "sig")
        fabric = build_fabric(
            "nosig", 2, 2,
            [["alu", "alu"], ["alu", "mul"]],
            input_widths=[1],
            output_widths=[1],
        )
        with pytest.raises(SchedulingError, match="sigmoid"):
            schedule(dfg, fabric)

    def test_too_many_instructions_rejected(self):
        b = DfgBuilder("big")
        a = b.input("A", 1)
        value = a[0]
        for _ in range(30):  # more muls than the fabric has mul FUs
            value = b.mul(value, 3)
        b.output("O", value)
        with pytest.raises(SchedulingError):
            schedule(b.build(), dnn_provisioned())

    def test_scarce_fus_left_for_scarce_ops(self):
        # classifier-like graph: sigmoid must land on the single sigmoid FU
        dfg = parse_dfg(
            "input A 2\nm = mul A.0 A.1\ns = sigmoid m\noutput O s", "sig2"
        )
        config = schedule(dfg, dnn_provisioned())
        coord = config.placement["s"]
        assert config.fabric.pes[coord].fu.name == "sigmoid"

    def test_summary_and_stats(self):
        config = schedule(DOT, dnn_provisioned())
        assert "dot3" in config.summary()
        assert config.total_hops >= 0
        assert sum(config.active_fus().values()) == 5
        assert config.config_size_bytes > 0

    def test_broadly_provisioned_handles_all_ops(self):
        dfg = parse_dfg(
            "input A 2\nd = div A.0 A.1\nm = mul d A.1\noutput O m", "divmul"
        )
        config = schedule(dfg, broadly_provisioned())
        assert len(config.placement) == 2


# ---------------------------------------------------------------------------
# Exactness against the reference placer, annealer and router
# ---------------------------------------------------------------------------


def _value_coord(dfg, fabric, port_map, placement, ref):
    """Grid coordinate where a value becomes available (None if unplaced)."""
    if ref.node in dfg.inputs:
        hw_port = fabric.find_port("in", port_map[ref.node])
        return hw_port.attach[ref.lane % len(hw_port.attach)]
    return placement.get(ref.node)


def _placement_cost(dfg, fabric, port_map, placement):
    """Total manhattan wirelength of all dataflow edges, walked from the
    DFG: the oracle for the scheduler's table-derived costs."""
    mesh = fabric.mesh
    cost = 0
    for inst in dfg.instructions.values():
        dst = placement.get(inst.name)
        if dst is None:
            continue
        for ref in dfg.operand_refs(inst):
            src = _value_coord(dfg, fabric, port_map, placement, ref)
            if src is not None:
                cost += mesh.manhattan(src, dst)
    for port_name, port in dfg.outputs.items():
        hw_port = fabric.find_port("out", port_map[port_name])
        for lane, ref in enumerate(port.sources):
            src = _value_coord(dfg, fabric, port_map, placement, ref)
            dst = hw_port.attach[lane % len(hw_port.attach)]
            if src is not None:
                cost += mesh.manhattan(src, dst)
    return cost


def reference_greedy(dfg, fabric, edges, rng):
    """Reference constructive placement: look every operand coord up per
    instruction and re-derive each candidate's FU richness per score.

    Ignores the scheduler's ``edges`` and walks the DFG instead.
    """
    port_map = map_ports(dfg, fabric)
    placement = {}
    occupied = set()
    mesh = fabric.mesh
    consumers = dfg.consumers()
    for inst in dfg.topological_order():
        candidates = [
            pe.coord
            for pe in fabric.pes_supporting(inst.op.name)
            if pe.coord not in occupied
        ]
        if not candidates:
            raise SchedulingError(
                f"no free FU for op {inst.op.name!r} "
                f"(instruction {inst.name!r}) on fabric {fabric.name!r}"
            )
        source_coords = [
            coord
            for ref in dfg.operand_refs(inst)
            if (coord := _value_coord(dfg, fabric, port_map, placement, ref))
            is not None
        ]
        feeds_output = any(
            ref.node == inst.name
            for port in dfg.outputs.values()
            for ref in port.sources
        )

        def score(coord):
            richness = len(fabric.pes[coord].fu.ops)
            wire = sum(mesh.manhattan(src, coord) for src in source_coords)
            pull = (mesh.rows - 1 - coord[1]) if feeds_output else 0
            headroom = coord[1] if consumers.get(inst.name) else 0
            return (richness, wire + pull, headroom, rng.random())

        best = min(candidates, key=score)
        placement[inst.name] = best
        occupied.add(best)
    return placement


def reference_anneal(dfg, fabric, edges, placement, rng, iterations):
    """Reference annealer: re-cost the whole placement on every move.

    Finds a move's occupant by scanning the placement.  Kept only as the
    oracle that :func:`scheduler._anneal_placement`'s incremental cost
    and coord map must match move for move.  Ignores ``edges``, like
    :func:`reference_greedy`.
    """
    if not placement or iterations <= 0:
        return placement
    port_map = map_ports(dfg, fabric)
    placement = dict(placement)
    names = list(placement)
    cost = _placement_cost(dfg, fabric, port_map, placement)
    best, best_cost = dict(placement), cost
    temperature = max(2.0, cost / 4.0)
    free_by_op = {
        inst.name: [pe.coord for pe in fabric.pes_supporting(inst.op.name)]
        for inst in dfg.instructions.values()
    }
    for _ in range(iterations):
        name = rng.choice(names)
        old = placement[name]
        target = rng.choice(free_by_op[name])
        if target == old:
            continue
        occupant = next((n for n, c in placement.items() if c == target), None)
        if occupant is not None and not fabric.pes[old].supports(
            dfg.instructions[occupant].op.name
        ):
            continue
        placement[name] = target
        if occupant is not None:
            placement[occupant] = old
        new_cost = _placement_cost(dfg, fabric, port_map, placement)
        delta = new_cost - cost
        if delta <= 0 or rng.random() < pow(2.718, -delta / temperature):
            cost = new_cost
            if cost < best_cost:
                best, best_cost = dict(placement), cost
        else:
            placement[name] = old
            if occupant is not None:
                placement[occupant] = target
        temperature = max(0.05, temperature * 0.995)
    return best


def reference_route_value(state, producer, src, dst):
    """Reference router: 0-1 BFS asking ``mesh.neighbors`` at every step.

    Probing a link records an empty user set for it, as the original
    router did; only the non-empty occupancy is comparable.
    """
    if src == dst:
        return []
    mesh = state.mesh

    def users(link):
        return state.occupancy.setdefault(link, set())

    best = {src: 0}
    parent = {}
    queue = deque([(0, src)])
    while queue:
        cost, coord = queue.popleft()
        if cost > best.get(coord, float("inf")):
            continue
        if coord == dst:
            break
        for nbr in mesh.neighbors(coord):
            link = (coord, nbr)
            if producer not in users(link) and len(users(link)) >= mesh.channels:
                continue
            step = 0 if producer in users(link) else 1
            if cost + step < best.get(nbr, float("inf")):
                best[nbr] = cost + step
                parent[nbr] = link
                if step == 0:
                    queue.appendleft((cost + step, nbr))
                else:
                    queue.append((cost + step, nbr))
    if dst not in parent:
        raise RoutingError(
            f"no route for {producer!r} from {src} to {dst} "
            f"(channels={mesh.channels})"
        )
    path = []
    coord = dst
    while coord != src:
        link = parent[coord]
        path.append(link)
        coord = link[0]
    path.reverse()
    for link in path:
        users(link).add(producer)
    return path


@pytest.fixture
def reference_schedule(monkeypatch):
    """``schedule`` with the reference placer, annealer and router."""

    def run(*args, **kwargs):
        with monkeypatch.context() as patch:
            patch.setattr(scheduler, "_greedy_placement", reference_greedy)
            patch.setattr(scheduler, "_anneal_placement", reference_anneal)
            patch.setattr(scheduler, "route_value", reference_route_value)
            return scheduler.schedule(*args, **kwargs)

    return run


def schedule_key(make_schedule, *args, **kwargs):
    """Everything a schedule decides, in order, or the error it raised."""
    try:
        config = make_schedule(*args, **kwargs)
    except SchedulingError as exc:
        return ("error", str(exc))
    return (
        list(config.placement.items()),
        list(config.port_map.items()),
        [
            (key, edge.src, edge.dst, edge.links, edge.extra_delay)
            for key, edge in config.edges.items()
        ],
        config.latency,
    )


def _golden_configs(build):
    return list(build().program.config_images.values())


GOLDEN_BUILDS = [
    (f"machsuite-{name}", MACHSUITE[name][0]) for name in MACHSUITE
] + [
    (f"dnn-{layer.name}", lambda layer=layer: build_dnn_layer(layer))
    for layer in DNN_LAYERS
]

EDGE_CASES = {
    # one operand wire listed twice in each peer table
    "repeated-operand": (
        "input A 2\nx = add A.0 A.1\nm = mul x x\ns = mul A.0 A.0\n"
        "t = add m s\noutput O t"
    ),
    # an output lane wired straight from an input lane, beside a real one
    "input-to-output": (
        "input A 2\nx = add A.0 A.1\ny = sub x A.1\noutput O y A.1"
    ),
    "accumulator": (
        "input A 2\ninput R\nm = mul A.0 A.1\na = acc m R\n"
        "s = add a A.0\noutput O s"
    ),
    # x and y feed each other's consumers and can trade PEs
    "mutual-swap": (
        "input A 2\nx = add A.0 A.1\ny = add x A.1\nz = add x y\n"
        "w = add z y\noutput O w z"
    ),
}


#: SHA-256 of the schedule keys of the 2,000 plans a seed-0 fuzz-oracle
#: pass schedules
FUZZ_PLAN_SCHEDULE_SHA = (
    "4c821133d3f942888fcb4f5ea71cac681dd8b7f88f8500dff10d057c15adba72"
)


def fuzz_plans(count=300):
    """``(plan, dfg)`` for the first ``count`` plans ``fuzz --seed 0`` draws."""
    for index in range(count):
        plan = random_plan(random.Random(f"0:{index}"))
        yield plan, dfg_from_spec(plan.dfg_spec)


def fuzz_kwargs(plan):
    return dict(
        seed=plan.schedule_seed,
        anneal_iterations=FUZZ_ANNEAL_ITERATIONS,
        max_attempts=FUZZ_SCHEDULE_ATTEMPTS,
    )


def one_channel_broad_fabric():
    """``broadly_provisioned`` with one channel per link instead of four."""
    broad = broadly_provisioned()
    mesh = broad.mesh
    return build_fabric(
        "broadly-provisioned-1ch",
        mesh.cols,
        mesh.rows,
        [[broad.pes[(x, y)].fu.name for x in range(mesh.cols)]
         for y in range(mesh.rows)],
        [port.width for port in broad.input_ports],
        [port.width for port in broad.output_ports],
        num_indirect=4,
        channels=1,
    )


class TestScheduleExactness:
    """Table-driven placement and routing change no schedule."""

    @pytest.mark.parametrize(
        "build", [b for _, b in GOLDEN_BUILDS], ids=[n for n, _ in GOLDEN_BUILDS]
    )
    def test_golden_suite(self, build, reference_schedule):
        for config in _golden_configs(build):
            dfg, fabric = config.dfg, config.fabric
            assert schedule_key(schedule, dfg, fabric) == schedule_key(
                reference_schedule, dfg, fabric
            )

    def test_random_plans(self, reference_schedule):
        for index in range(200):
            plan = random_plan(random.Random(f"exact:{index}"))
            dfg = dfg_from_spec(plan.dfg_spec)
            kwargs = dict(
                seed=plan.schedule_seed,
                anneal_iterations=FUZZ_ANNEAL_ITERATIONS,
                max_attempts=FUZZ_SCHEDULE_ATTEMPTS,
            )
            assert schedule_key(schedule, dfg, FUZZ_FABRIC, **kwargs) == (
                schedule_key(reference_schedule, dfg, FUZZ_FABRIC, **kwargs)
            ), plan.dfg_spec

    def test_fuzz_plan_schedule_sha(self):
        """The 2,000 fuzz-oracle seed-0 plans schedule exactly as locked."""
        digest = hashlib.sha256()
        for plan, dfg in fuzz_plans(2000):
            key = schedule_key(schedule, dfg, FUZZ_FABRIC, **fuzz_kwargs(plan))
            digest.update((repr(key) + "\n").encode())
        assert digest.hexdigest() == FUZZ_PLAN_SCHEDULE_SHA

    def test_retry_path(self, monkeypatch, reference_schedule):
        """On one channel per link, routing fails: retries and give-ups match.

        Counts the routing failures of the optimised runs: 45 DFGs
        schedule only after a retry, and 65 give up after every attempt.
        """
        route_all, routing_failures = scheduler._route_all, []

        def counting_route_all(*args):
            try:
                return route_all(*args)
            except RoutingError as exc:
                routing_failures.append(exc)
                raise

        fabric = one_channel_broad_fabric()
        retried = gave_up = 0
        for plan, dfg in fuzz_plans():
            kwargs = fuzz_kwargs(plan)
            with monkeypatch.context() as patch:
                patch.setattr(scheduler, "_route_all", counting_route_all)
                routing_failures.clear()
                key = schedule_key(schedule, dfg, fabric, **kwargs)
            assert key == schedule_key(
                reference_schedule, dfg, fabric, **kwargs
            ), plan.dfg_spec
            if key[0] == "error":
                gave_up += 1
            elif routing_failures:
                retried += 1
        assert (retried, gave_up) == (45, 65)

    @pytest.mark.parametrize("name", sorted(EDGE_CASES))
    @pytest.mark.parametrize("fabric", [dnn_provisioned(), FUZZ_FABRIC],
                             ids=["dnn", "broad"])
    def test_edge_cases(self, name, fabric, reference_schedule):
        dfg = parse_dfg(EDGE_CASES[name], name)
        for seed in range(20):
            assert schedule_key(schedule, dfg, fabric, seed=seed) == (
                schedule_key(reference_schedule, dfg, fabric, seed=seed)
            ), seed


def assert_edges_match(config):
    """``_edges`` lists ``config.edges``' keys in order, and its ends,
    placed, sum to the oracle's wirelength."""
    dfg, fabric, port_map = config.dfg, config.fabric, config.port_map
    edges = scheduler._edges(dfg, fabric, port_map)
    assert [key for key, _, _ in edges] == list(config.edges)
    at = config.placement
    assert sum(
        fabric.mesh.manhattan(at.get(src, src), at.get(dst, dst))
        for _, src, dst in edges
    ) == _placement_cost(dfg, fabric, port_map, at)


class TestEdgeList:
    @pytest.mark.parametrize(
        "build", [b for _, b in GOLDEN_BUILDS], ids=[n for n, _ in GOLDEN_BUILDS]
    )
    def test_golden_suite(self, build):
        for config in _golden_configs(build):
            assert_edges_match(config)

    def test_fuzz_plans(self):
        for plan, dfg in fuzz_plans():
            assert_edges_match(schedule(dfg, FUZZ_FABRIC, **fuzz_kwargs(plan)))


def random_legal_placement(dfg, fabric, rng):
    """Each instruction on a distinct random supporting PE, or None."""
    placement, occupied = {}, set()
    for name, inst in dfg.instructions.items():
        free = [
            pe.coord for pe in fabric.pes_supporting(inst.op.name)
            if pe.coord not in occupied
        ]
        if not free:
            return None
        placement[name] = rng.choice(free)
        occupied.add(placement[name])
    return placement


def random_placements(fabric, extra=()):
    """``(dfg, port_map, placement)``: up to 20 random legal placements of
    each of 60 random DFGs, then of each DFG in ``extra`` (name -> spec)."""
    rng = random.Random(17)
    dfgs = itertools.chain(
        # lazily, so each DFG's draws come right before its placements'
        (random_dfg(seed, rng.randint(1, 3), rng.randint(1, 12))
         for seed in range(60)),
        (parse_dfg(extra[name], name) for name in sorted(extra)),
    )
    for dfg in dfgs:
        try:
            port_map = map_ports(dfg, fabric)
        except SchedulingError:
            continue
        for _ in range(20):
            placement = random_legal_placement(dfg, fabric, rng)
            if placement is None:
                break
            yield dfg, port_map, placement


class TestAnnealInvariants:
    """The two facts the annealer's exactness rests on."""

    @pytest.mark.parametrize("seed", range(6))
    def test_inline_draw_matches_choice(self, seed):
        rng, twin = random.Random(seed), random.Random(seed)
        for _ in range(3):
            for n in range(1, 71):
                bits = n.bit_length()
                pick = rng.getrandbits(bits)
                while pick >= n:
                    pick = rng.getrandbits(bits)
                assert pick == twin.choice(range(n)), n
                assert rng.getstate() == twin.getstate(), n

    @pytest.mark.parametrize("fabric", [dnn_provisioned(), FUZZ_FABRIC],
                             ids=["dnn", "broad"])
    def test_floor_bounds_legal_placements(self, fabric):
        checked = 0
        for dfg, port_map, placement in random_placements(fabric):
            edges = scheduler._edges(dfg, fabric, port_map)
            *_, floor = scheduler._anneal_tables(dfg, fabric, edges, placement)
            cost = _placement_cost(dfg, fabric, port_map, placement)
            assert floor <= cost, (dfg.name, placement)
            checked += 1
        assert checked >= 500

    @pytest.mark.parametrize("fabric", [dnn_provisioned(), FUZZ_FABRIC],
                             ids=["dnn", "broad"])
    def test_start_cost_matches_oracle(self, fabric):
        """The annealer's start cost, summed from its tables, is the full
        wirelength: port-to-port edges (``input-to-output``) included."""
        checked = 0
        for dfg, port_map, placement in random_placements(fabric, EDGE_CASES):
            edges = scheduler._edges(dfg, fabric, port_map)
            *_, cost, _ = scheduler._anneal_tables(dfg, fabric, edges, placement)
            assert cost == _placement_cost(dfg, fabric, port_map, placement), (
                dfg.name, placement
            )
            checked += 1
        assert checked >= 500

    def test_floor_exit_fires(self):
        """The annealer matches the reference and, on some plans, stops
        early: it leaves its ``rng`` fewer draws into the stream."""
        stopped = 0
        for plan, dfg in fuzz_plans(100):
            edges = scheduler._edges(
                dfg, FUZZ_FABRIC, map_ports(dfg, FUZZ_FABRIC)
            )
            rng = random.Random(plan.schedule_seed)
            placement = scheduler._greedy_placement(
                dfg, FUZZ_FABRIC, edges, rng
            )
            twin = random.Random()
            twin.setstate(rng.getstate())
            args = (dfg, FUZZ_FABRIC, edges, placement)
            assert scheduler._anneal_placement(
                *args, rng, FUZZ_ANNEAL_ITERATIONS
            ) == reference_anneal(*args, twin, FUZZ_ANNEAL_ITERATIONS)
            stopped += rng.getstate() != twin.getstate()
        assert stopped > 0


@st.composite
def route_requests(draw):
    cols, rows = draw(st.integers(2, 5)), draw(st.integers(1, 4))
    coords = st.tuples(st.integers(0, cols - 1), st.integers(0, rows - 1))
    requests = draw(st.lists(
        st.tuples(st.sampled_from(["v0", "v1", "v2", "v3"]), coords, coords),
        min_size=1, max_size=12,
    ))
    return MeshNetwork(cols, rows, channels=draw(st.integers(1, 2))), requests


class TestRouterExactness:
    @given(case=route_requests())
    @settings(max_examples=300, deadline=None)
    def test_matches_reference_router(self, case):
        mesh, requests = case
        state, reference = RouterState(mesh), RouterState(mesh)

        def outcome(route, router_state, request):
            try:
                return route(router_state, *request)
            except RoutingError as exc:
                return str(exc)

        for request in requests:
            assert outcome(route_value, state, request) == outcome(
                reference_route_value, reference, request
            )
            assert state.occupancy == {
                link: users for link, users in reference.occupancy.items()
                if users
            }
        assert state.total_channels_used() == reference.total_channels_used()
