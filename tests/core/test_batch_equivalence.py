"""Differential update-equivalence suite for the batching pipeline.

Batched maintenance (``with db.batch(): ...``) is a pure performance
optimisation: coalescing notifications and replaying them at the flush
must never change what ends up in a GMR.  This suite runs update scripts
through

(a) an **unbatched** object base,
(b) a **batched** object base flushing at fixed script boundaries, and
(c) a naive **recompute-everything oracle** (direct evaluation of the
    function bodies against the final physical state),

and asserts that (a) and (b) agree on the GMR extension — values *and*
validity flags (Defs. 3.2–3.4) — at every flush boundary, and that
forward queries after the last flush agree with (c), for every
instrumentation level × strategy combination.

A stateful Hypothesis machine additionally interleaves batch scopes,
flushes, queries and extension adaptations (mid-batch ``create`` /
``delete`` of argument objects, Sec. 4.2) in arbitrary order against a
mirrored unbatched object base.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
    run_state_machine_as_test,
)

from repro import InstrumentationLevel, ObjectBase, Strategy
from repro.domains.geometry import (
    build_figure2_database,
    build_geometry_schema,
    create_cuboid,
    create_vertex,
)

LEVELS = [
    InstrumentationLevel.NAIVE,
    InstrumentationLevel.SCHEMA_DEP,
    InstrumentationLevel.OBJ_DEP,
    InstrumentationLevel.INFO_HIDING,
]
STRATEGIES = [
    Strategy.IMMEDIATE,
    Strategy.LAZY,
    Strategy.DEFERRED,
]

#: A fixed update script covering every rewritten elementary update —
#: attribute writes, operation invocations, and extension adaptations
#: (create/delete), with repeated touches of the same object so the
#: batched run actually coalesces.
_SCRIPT = [
    ("scale", 0, 1.5),
    ("scale", 0, 1.1),
    ("rotate", 1, 0.7),
    ("set_vertex", 0, 2.5),
    ("set_mat", 1, 0.0),
    ("create", 3, 2.0),
    ("scale", 3, 1.25),
    ("query", 0, 0.0),
    ("translate", 2, 1.5),
    ("delete", 1, 0.0),
    ("scale", 2, 0.9),
    ("set_vertex", 2, 4.0),
    ("create", 4, 3.0),
    ("delete", 4, 0.0),
    ("rotate", 0, 1.2),
]

_OPS = st.lists(
    st.tuples(
        st.sampled_from(
            ["scale", "rotate", "translate", "set_mat", "set_vertex",
             "create", "delete", "query"]
        ),
        st.integers(min_value=0, max_value=7),
        st.floats(min_value=0.5, max_value=1.8),
    ),
    max_size=15,
)


class _Harness:
    """One object base replaying the shared op vocabulary."""

    def __init__(
        self, level: InstrumentationLevel, strategy: Strategy
    ) -> None:
        self.strategy = strategy
        self.db = ObjectBase(level=level)
        build_geometry_schema(self.db)
        self.fixture = build_figure2_database(self.db)
        self.gmr = self.db.materialize(
            [("Cuboid", "volume"), ("Cuboid", "weight")], strategy=strategy
        )
        self.cuboids = list(self.fixture.cuboids)
        self.queried: list[float] = []

    def apply(self, op: tuple) -> None:
        code, selector, magnitude = op
        db, fixture = self.db, self.fixture
        cuboid = (
            self.cuboids[selector % len(self.cuboids)]
            if self.cuboids
            else None
        )
        if code == "scale" and cuboid is not None:
            cuboid.scale(create_vertex(db, magnitude, 1.0, 1.0))
        elif code == "rotate" and cuboid is not None:
            cuboid.rotate("xyz"[selector % 3], magnitude)
        elif code == "translate" and cuboid is not None:
            cuboid.translate(create_vertex(db, magnitude, 0.0, -magnitude))
        elif code == "set_mat" and cuboid is not None:
            cuboid.set_Mat(fixture.gold if selector % 2 else fixture.iron)
        elif code == "set_vertex" and cuboid is not None:
            vertex = db.objects.get(cuboid.oid).data[f"V{1 + selector % 8}"]
            db.handle(vertex).set_Y(magnitude * 3.0)
        elif code == "create":
            self.cuboids.append(
                create_cuboid(
                    db,
                    dims=(magnitude, 1.0, 1.0),
                    material=fixture.iron,
                    cuboid_id=50 + selector,
                )
            )
        elif code == "delete" and len(self.cuboids) > 1 and cuboid is not None:
            self.cuboids.remove(cuboid)
            db.delete(cuboid)
        elif code == "query" and cuboid is not None:
            self.queried.append(round(cuboid.volume(), 9))

    def state(self):
        """The GMR extension: args, validity flags, and the values of
        *valid* entries (invalid values are recomputed on access, so
        their stored bytes are not part of the observable state)."""
        return sorted(
            (
                row.args[0].value,
                tuple(row.valid),
                tuple(
                    round(value, 9) if valid else None
                    for value, valid in zip(row.results, row.valid)
                ),
            )
            for row in self.gmr.rows()
        )

    def check_consistency(self):
        """Def. 3.2 consistency."""
        return self.gmr.check_consistency(self.db)

    def forward_results(self):
        """Forward-query every surviving cuboid (forces recomputation of
        invalid entries)."""
        return [
            (round(c.volume(), 9), round(c.weight(), 9))
            for c in self.cuboids
        ]

    def oracle_results(self):
        """The naive recompute-everything oracle: evaluate the real
        function bodies against the current physical state, bypassing
        the GMR entirely."""
        db = self.db
        volume = db.functions.register("Cuboid", "volume")
        weight = db.functions.register("Cuboid", "weight")
        out = []
        for cuboid in self.cuboids:
            out.append(
                (
                    round(db.call_function(volume, (cuboid.oid,)), 9),
                    round(db.call_function(weight, (cuboid.oid,)), 9),
                )
            )
        return out


def _boundary_states(level, strategy, ops, *, batch_size):
    """Replay ``ops`` and capture the GMR state at each flush boundary.

    ``batch_size=None`` replays unbatched (capturing at the same
    boundaries); otherwise each chunk runs inside one batch scope.
    """
    harness = _Harness(level, strategy)
    states = []
    chunk_edge = batch_size or 4
    for start in range(0, len(ops), chunk_edge):
        chunk = ops[start : start + chunk_edge]
        if batch_size is None:
            for op in chunk:
                harness.apply(op)
        else:
            with harness.db.batch():
                for op in chunk:
                    harness.apply(op)
        states.append(harness.state())
    return harness, states


@pytest.mark.parametrize("strategy", STRATEGIES, ids=lambda s: s.value)
@pytest.mark.parametrize("level", LEVELS, ids=lambda lv: lv.name)
def test_batched_equals_unbatched_every_level_and_strategy(level, strategy):
    plain, plain_states = _boundary_states(
        level, strategy, _SCRIPT, batch_size=None
    )
    batched, batched_states = _boundary_states(
        level, strategy, _SCRIPT, batch_size=4
    )
    assert batched_states == plain_states
    assert batched.queried == plain.queried
    assert batched.check_consistency() == []
    # The batched run must have actually coalesced something on this
    # script (repeated touches of the same cuboids).
    assert batched.db.gmr_manager.stats.batched_invalidations > 0
    assert batched.db.gmr_manager.stats.rrr_probes_saved > 0
    # (c) the recompute-everything oracle agrees with forward queries.
    assert batched.forward_results() == batched.oracle_results()


@pytest.mark.parametrize("strategy", STRATEGIES, ids=lambda s: s.value)
def test_deferred_drain_matches_unbatched_revalidation(strategy):
    """After a full scheduler drain / revalidation sweep both runs are
    fully valid and value-identical."""
    plain, _ = _boundary_states(
        InstrumentationLevel.OBJ_DEP, strategy, _SCRIPT, batch_size=None
    )
    batched, _ = _boundary_states(
        InstrumentationLevel.OBJ_DEP, strategy, _SCRIPT, batch_size=6
    )
    for harness in (plain, batched):
        harness.db.gmr_manager.scheduler.revalidate()
        harness.db.gmr_manager.revalidate(harness.gmr)
    assert batched.state() == plain.state()
    for args, valid, _values in batched.state():
        assert all(valid), f"invalid entry left for {args}"


@given(ops=_OPS, batch_size=st.integers(min_value=1, max_value=6))
@settings(
    max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
def test_batched_equals_unbatched_property(ops, batch_size):
    """Hypothesis: arbitrary scripts, OBJ_DEP, immediate and lazy."""
    for strategy in (Strategy.IMMEDIATE, Strategy.LAZY):
        plain, plain_states = _boundary_states(
            InstrumentationLevel.OBJ_DEP, strategy, ops, batch_size=None
        )
        batched, batched_states = _boundary_states(
            InstrumentationLevel.OBJ_DEP, strategy, ops, batch_size=batch_size
        )
        # Boundary capture uses chunk size 4 on the unbatched side, so
        # only the final states are directly comparable here.
        assert (batched_states or [[]])[-1] == (plain_states or [[]])[-1]
        assert batched.queried == plain.queried
        assert batched.gmr.check_consistency(batched.db) == []
        assert batched.forward_results() == batched.oracle_results()


def test_queries_inside_a_batch_force_a_flush():
    harness = _Harness(InstrumentationLevel.OBJ_DEP, Strategy.IMMEDIATE)
    manager = harness.db.gmr_manager
    cuboid = harness.cuboids[0]
    with harness.db.batch():
        harness.apply(("scale", 0, 2.0))
        assert manager.stats.batch_flushes == 0
        value = cuboid.volume()  # forward query: must see the update
        assert manager.stats.batch_flushes == 1
    assert value == pytest.approx(harness.oracle_results()[0][0])
    assert manager.stats.batch_flushes == 1  # exit flush found no events


def test_backward_query_inside_a_batch_forces_a_flush():
    harness = _Harness(InstrumentationLevel.OBJ_DEP, Strategy.LAZY)
    manager = harness.db.gmr_manager
    fid = harness.gmr.fids[0]
    with harness.db.batch():
        harness.apply(("scale", 0, 2.0))
        results = dict(
            (args[0].value, value)
            for value, args in manager.backward_query(fid)
        )
        assert manager.stats.batch_flushes == 1
    oracle = {
        c.oid.value: round(v, 9)
        for c, (v, _w) in zip(harness.cuboids, harness.oracle_results())
    }
    assert {k: round(v, 9) for k, v in results.items()} == oracle


def test_nested_batches_flush_once_at_the_outermost_exit():
    harness = _Harness(InstrumentationLevel.OBJ_DEP, Strategy.IMMEDIATE)
    manager = harness.db.gmr_manager
    with harness.db.batch() as outer:
        with harness.db.batch():
            harness.apply(("scale", 0, 1.5))
            harness.apply(("scale", 0, 1.5))
        assert manager.stats.batch_flushes == 0  # inner exit: no flush
    assert manager.stats.batch_flushes == 1
    assert outer.notifications > 0
    assert outer.probes_saved > 0


def test_batch_flushes_even_when_the_body_raises():
    harness = _Harness(InstrumentationLevel.OBJ_DEP, Strategy.IMMEDIATE)
    with pytest.raises(RuntimeError):
        with harness.db.batch():
            harness.apply(("scale", 0, 2.0))
            raise RuntimeError("updater died")
    # The physical update had already been applied, so the flush must
    # have happened: the GMR reflects the post-update state.
    assert harness.gmr.check_consistency(harness.db) == []
    assert harness.forward_results() == harness.oracle_results()


def test_create_then_delete_inside_one_batch_cancels_out():
    harness = _Harness(InstrumentationLevel.OBJ_DEP, Strategy.IMMEDIATE)
    before = harness.state()
    with harness.db.batch():
        harness.apply(("create", 5, 2.0))
        harness.apply(("delete", len(harness.cuboids) - 1, 0.0))
    assert harness.state() == before
    assert harness.gmr.check_consistency(harness.db) == []


@pytest.mark.parametrize("strategy", STRATEGIES, ids=lambda s: s.name)
@pytest.mark.parametrize("level", LEVELS, ids=lambda l: l.name)
def test_invalidate_then_delete_in_one_batch(level, strategy):
    """Update an object, then delete it, inside a single batch.

    Found by the stateful machine: a lazy invalidation consumes the RRR
    entry, so the unbatched run's forget_object never finds the row and
    leaves it behind as a blind invalid row (Sec. 4.2) — the grouped
    flush must reproduce that, not eagerly remove the row."""
    plain = _Harness(level, strategy)
    batched = _Harness(level, strategy)
    script = [("set_mat", 0, 0.0), ("delete", 0, 0.0)]
    for op in script:
        plain.apply(op)
    with batched.db.batch():
        for op in script:
            batched.apply(op)
    assert batched.state() == plain.state()
    assert batched.check_consistency() == []


@pytest.mark.parametrize("strategy", STRATEGIES, ids=lambda s: s.name)
@pytest.mark.parametrize("level", LEVELS, ids=lambda l: l.name)
def test_create_update_delete_in_one_batch(level, strategy):
    """Create an object, update it, delete another, then delete it —
    all inside a single batch.

    Found by the stateful machine: the queue elides the create+delete
    pair, but sequentially the adaptation materialized the row, the
    lazy invalidation consumed its RRR entries, and the delete walked
    away — leaving a blind invalid row the flush must synthesize.  The
    unrelated delete in between strands the invalidation behind a
    coalescing barrier, so the fold must reach across it."""
    plain = _Harness(level, strategy)
    batched = _Harness(level, strategy)
    script = [
        ("create", 0, 1.0),
        ("set_mat", 3, 0.0),
        ("delete", 0, 0.0),
        ("delete", 2, 0.0),
    ]
    for op in script:
        plain.apply(op)
    with batched.db.batch():
        for op in script:
            batched.apply(op)
    assert batched.state() == plain.state()
    assert batched.check_consistency() == []


class BatchEquivalenceMachine(RuleBasedStateMachine):
    """Mirror every operation into a batched and an unbatched base.

    The batched base keeps a batch scope open between ``flush`` rules;
    the unbatched base applies everything eagerly.  At every flush
    boundary both GMR extensions (values and validity flags) must agree.
    """

    @initialize(
        level=st.sampled_from(LEVELS), strategy=st.sampled_from(STRATEGIES)
    )
    def setup(self, level, strategy):
        self.plain = _Harness(level, strategy)
        self.batched = _Harness(level, strategy)
        self.scope = self.batched.db.batch()
        self.scope.__enter__()
        self.in_batch = True

    def _mirror(self, op):
        self.plain.apply(op)
        self.batched.apply(op)

    @rule(selector=st.integers(0, 7), magnitude=st.floats(0.5, 1.8))
    def update(self, selector, magnitude):
        self._mirror(("scale", selector, magnitude))

    @rule(selector=st.integers(0, 7), magnitude=st.floats(0.5, 1.8))
    def rotate(self, selector, magnitude):
        self._mirror(("rotate", selector, magnitude))

    @rule(selector=st.integers(0, 7), magnitude=st.floats(0.5, 4.0))
    def set_vertex(self, selector, magnitude):
        self._mirror(("set_vertex", selector, magnitude))

    @rule(selector=st.integers(0, 7))
    def set_material(self, selector):
        self._mirror(("set_mat", selector, 0.0))

    @rule(selector=st.integers(0, 7), magnitude=st.floats(0.5, 1.8))
    def create_argument_object(self, selector, magnitude):
        self._mirror(("create", selector, magnitude))

    @rule(selector=st.integers(0, 7))
    def delete_argument_object(self, selector):
        self._mirror(("delete", selector, 0.0))

    @rule(selector=st.integers(0, 7))
    def query(self, selector):
        self._mirror(("query", selector, 0.0))

    @precondition(lambda self: getattr(self, "in_batch", False))
    @rule()
    def flush(self):
        self.scope.__exit__(None, None, None)
        self.in_batch = False
        assert self.batched.state() == self.plain.state()
        assert self.batched.check_consistency() == []
        self.scope = self.batched.db.batch()
        self.scope.__enter__()
        self.in_batch = True

    @invariant()
    def mirrored_populations_agree(self):
        if not hasattr(self, "plain"):
            return
        assert [c.oid.value for c in self.batched.cuboids] == [
            c.oid.value for c in self.plain.cuboids
        ]

    def teardown(self):
        if getattr(self, "in_batch", False):
            self.scope.__exit__(None, None, None)
            assert self.batched.state() == self.plain.state()
            assert self.batched.queried == self.plain.queried


def test_stateful_batch_equivalence():
    run_state_machine_as_test(
        BatchEquivalenceMachine,
        settings=settings(
            max_examples=20,
            stateful_step_count=15,
            deadline=None,
            suppress_health_check=[HealthCheck.too_slow],
        ),
    )
