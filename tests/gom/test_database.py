"""Unit tests for ObjectBase: lifecycle, access paths, indexes."""

import pytest

from repro.errors import (
    DeletedObjectError,
    NoSuchObjectError,
    NotSetStructuredError,
    SchemaError,
    TypeCheckError,
    UnknownAttributeError,
)
from repro import ObjectBase
from repro.gom.oid import Oid


@pytest.fixture
def db():
    database = ObjectBase()
    database.define_tuple_type("Point", {"X": "float", "Y": "float"})
    database.define_set_type("Points", "Point")
    database.define_list_type("Path", "Point")
    return database


class TestCreate:
    def test_new_with_attributes(self, db):
        point = db.new("Point", X=1.0, Y=2.0)
        assert point.X == 1.0
        assert point.Y == 2.0

    def test_new_defaults_atomic_attributes(self, db):
        point = db.new("Point")
        assert point.X == 0.0

    def test_new_unknown_attribute(self, db):
        with pytest.raises(UnknownAttributeError):
            db.new("Point", Z=1.0)

    def test_new_type_checks(self, db):
        with pytest.raises(TypeCheckError):
            db.new("Point", X="not a float")

    def test_new_collection_for_tuple_type_rejected(self, db):
        with pytest.raises(SchemaError):
            db.new_collection("Point")

    def test_new_for_collection_type_rejected(self, db):
        with pytest.raises(SchemaError):
            db.new("Points")

    def test_oids_are_unique_and_stable(self, db):
        first = db.new("Point")
        second = db.new("Point")
        assert first.oid != second.oid
        assert db.handle(first.oid) == first

    def test_extension(self, db):
        db.new("Point")
        db.new("Point")
        assert len(db.extension("Point")) == 2


class TestAttributes:
    def test_set_and_read(self, db):
        point = db.new("Point", X=1.0)
        point.set_X(5.0)
        assert point.X == 5.0

    def test_setter_type_checks(self, db):
        point = db.new("Point")
        with pytest.raises(TypeCheckError):
            point.set_X("bad")

    def test_unknown_member(self, db):
        point = db.new("Point")
        with pytest.raises(UnknownAttributeError):
            point.Ghost

    def test_direct_assignment_forbidden(self, db):
        point = db.new("Point")
        with pytest.raises(AttributeError):
            point.X = 3.0

    def test_reference_attributes_wrap_into_handles(self, db):
        db.define_tuple_type("Segment", {"A": "Point", "B": "Point"})
        a = db.new("Point", X=0.0)
        b = db.new("Point", X=1.0)
        segment = db.new("Segment", A=a, B=b)
        assert segment.A == a
        assert segment.A.X == 0.0

    def test_unset_reference_is_none(self, db):
        db.define_tuple_type("Holder", {"P": "Point"})
        holder = db.new("Holder")
        assert holder.P is None


class TestCollections:
    def test_set_insert_iterate(self, db):
        a = db.new("Point")
        b = db.new("Point")
        points = db.new_collection("Points", [a])
        points.insert(b)
        assert {handle.oid for handle in points} == {a.oid, b.oid}
        assert len(points) == 2

    def test_set_rejects_duplicates(self, db):
        a = db.new("Point")
        points = db.new_collection("Points", [a, a])
        assert len(points) == 1
        points.insert(a)
        assert len(points) == 1

    def test_list_allows_duplicates(self, db):
        a = db.new("Point")
        path = db.new_collection("Path", [a, a])
        assert len(path) == 2

    def test_remove(self, db):
        a = db.new("Point")
        points = db.new_collection("Points", [a])
        points.remove(a)
        assert len(points) == 0
        points.remove(a)  # removing a non-member is a no-op
        assert len(points) == 0

    def test_contains(self, db):
        a = db.new("Point")
        b = db.new("Point")
        points = db.new_collection("Points", [a])
        assert a in points
        assert b not in points
        assert points.contains(a)

    def test_element_type_checked(self, db):
        db.define_tuple_type("Other", {})
        other = db.new("Other")
        points = db.new_collection("Points")
        with pytest.raises(TypeCheckError):
            points.insert(other)

    def test_collection_ops_on_tuple_object_rejected(self, db):
        point = db.new("Point")
        with pytest.raises(NotSetStructuredError):
            point.insert(point)
        with pytest.raises(NotSetStructuredError):
            list(iter(point))


class TestDelete:
    def test_delete_removes_object(self, db):
        point = db.new("Point")
        db.delete(point)
        with pytest.raises(NoSuchObjectError):
            db.objects.get(point.oid)

    def test_delete_removes_from_extension(self, db):
        point = db.new("Point")
        db.delete(point)
        assert db.extension("Point") == []

    def test_extension_order_is_creation_order_minus_deletions(self, db):
        db.define_tuple_type("Point3", {"Z": "float"}, supertype="Point")
        a, b = db.new("Point"), db.new("Point")
        p, q = db.new("Point3"), db.new("Point3")
        c = db.new("Point")
        db.delete(a)
        db.delete(p)
        d, r = db.new("Point"), db.new("Point3")
        db.delete(c)
        e = db.new("Point")
        # Own extent first, then each subtype's, each in creation order.
        assert db.extension("Point") == [b, d, e, q, r]
        assert db.objects.own_extent("Point") == [b.oid, d.oid, e.oid]
        assert db.objects.extension("Point3") == [q.oid, r.oid]
        assert db.objects.extension_size("Point") == 5
        assert [h.oid for h in db.extension("Point")] == db.objects.extension("Point")

    def test_access_after_delete_raises(self, db):
        point = db.new("Point")
        db.delete(point)
        with pytest.raises(NoSuchObjectError):
            point.X

    def test_double_delete_raises(self, db):
        point = db.new("Point")
        db.delete(point)
        with pytest.raises(NoSuchObjectError):
            db.delete(point)


class TestOperations:
    def test_invoke(self, point_db):
        point = point_db.new("Point", X=3.0, Y=4.0)
        assert point.norm() == 5.0

    def test_operation_arity_checked(self, point_db):
        point = point_db.new("Point", X=3.0, Y=4.0)
        with pytest.raises(TypeCheckError):
            point.norm(1)

    def test_operation_argument_types_checked(self, db):
        def shift(self, dx):
            self.set_X(self.X + dx)

        db.define_operation("Point", "shift", ["float"], "void", shift)
        point = db.new("Point", X=1.0)
        point.shift(2.0)
        assert point.X == 3.0
        with pytest.raises(TypeCheckError):
            point.shift("bad")

    def test_operations_receive_handles_for_object_args(self, db):
        def dist(self, other):
            return abs(self.X - other.X)

        db.define_operation("Point", "dist", ["Point"], "float", dist)
        a = db.new("Point", X=1.0)
        b = db.new("Point", X=4.0)
        assert a.dist(b) == 3.0

    def test_inherited_operation_dispatch(self, db):
        db.define_tuple_type("Point3", {"Z": "float"}, supertype="Point")

        def flat_norm(self):
            return (self.X * self.X + self.Y * self.Y) ** 0.5

        db.define_operation("Point", "flat_norm", [], "float", flat_norm)
        point = db.new("Point3", X=3.0, Y=4.0, Z=9.0)
        assert point.flat_norm() == 5.0


class TestAttrIndexes:
    def test_index_backfills_existing(self, db):
        for x in range(5):
            db.new("Point", X=float(x))
        index = db.create_attr_index("Point", "X")
        assert len(index) == 5
        assert index.search(3.0)

    def test_index_maintained_on_create_and_set(self, db):
        index = db.create_attr_index("Point", "X")
        point = db.new("Point", X=1.0)
        assert index.search(1.0) == [point.oid]
        point.set_X(2.0)
        assert index.search(1.0) == []
        assert index.search(2.0) == [point.oid]

    def test_index_maintained_on_delete(self, db):
        index = db.create_attr_index("Point", "X")
        point = db.new("Point", X=1.0)
        db.delete(point)
        assert index.search(1.0) == []

    def test_attr_index_lookup(self, db):
        assert db.attr_index("Point", "X") is None
        db.create_attr_index("Point", "X")
        assert db.attr_index("Point", "X") is not None
        assert db.attr_index("Point", "Ghost") is None

    def test_create_index_twice_returns_same(self, db):
        first = db.create_attr_index("Point", "X")
        second = db.create_attr_index("Point", "X")
        assert first is second


class TestTracing:
    def test_reads_recorded(self, db):
        point = db.new("Point", X=1.0)
        with db.trace() as tracer:
            point.X
        assert point.oid in tracer.objects
        assert ("Point", "X") in tracer.attributes

    def test_nested_tracers_both_record(self, db):
        point = db.new("Point", X=1.0)
        with db.trace() as outer:
            with db.trace() as inner:
                point.X
        assert point.oid in outer.objects
        assert point.oid in inner.objects

    def test_no_recording_outside_trace(self, db):
        point = db.new("Point", X=1.0)
        with db.trace() as tracer:
            pass
        point.X
        assert not tracer.objects

    def test_collection_iteration_recorded(self, db):
        a = db.new("Point")
        points = db.new_collection("Points", [a])
        with db.trace() as tracer:
            list(points)
        assert points.oid in tracer.objects
        assert ("Points", "__elements__") in tracer.attributes
