"""Member plans: what ``handle.member`` resolves to, compiled once.

``handle.X`` may be an attribute read, the built-in writer ``set_A`` or a
declared operation.  Which one — and the declaring type, the public
clause and the ``(declaring type, attribute)`` pair the access tracers
record — depends only on the receiver's dynamic type and the member
name, so :func:`build_plan` resolves it once per ``(type, member)`` and
binds the result into a callable ``access(handle, obj)``.
:meth:`ObjectBase.handle_member` is then a cache lookup and one call.

The funnel rule: the compiled callables reach the object base only
through the entry points an outside tracer wraps on the *class*
(``benchmarks/e2e/trace.py``) — ``db.invoke``, ``db.set_attr`` and
``db.buffer.touch`` are looked up on every call, never captured bound.
"""

from __future__ import annotations

from types import MethodType
from typing import TYPE_CHECKING, Any, Callable

from repro.errors import (
    EncapsulationError,
    UnknownAttributeError,
    UnknownOperationError,
)
from repro.gom.handles import Handle, bind_db, bind_internal, bind_oid, new_handle
from repro.gom.objects import StoredObject
from repro.gom.oid import Oid
from repro.gom.types import OperationDef

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.gom.database import ObjectBase

Access = Callable[[Handle, StoredObject], Any]


class MemberPlan:
    """The resolution of one ``(dynamic type, member)`` pair."""

    __slots__ = ("kind", "decl_type", "attr_type", "operation", "public", "access")

    def __init__(
        self,
        kind: str,
        decl_type: str,
        public: bool,
        access: Access,
        *,
        attr_type: str | None = None,
        operation: OperationDef | None = None,
    ) -> None:
        #: ``"attr"`` | ``"setter"`` | ``"op"``.
        self.kind = kind
        self.decl_type = decl_type
        self.attr_type = attr_type
        self.operation = operation
        self.public = public
        #: ``access(handle, obj)`` evaluates ``handle.member``; ``obj``
        #: is the receiver's live :class:`StoredObject`.
        self.access = access


def build_plan(db: "ObjectBase", type_name: str, member: str) -> MemberPlan:
    schema = db.schema
    attributes = schema.all_attributes(type_name)
    if member in attributes:
        decl = schema.attribute_declaring_type(type_name, member)
        public = schema.is_public(type_name, member)
        return MemberPlan(
            "attr", decl, public,
            _attribute_reader(db, type_name, member, decl, public),
            attr_type=attributes[member].type_name,
        )
    if member.startswith("set_"):
        attr = member[len("set_") :]
        if attr in attributes:
            decl = schema.attribute_declaring_type(type_name, attr)
            public = schema.is_public(type_name, member)
            return MemberPlan(
                "setter", decl, public, _setter_access(db, type_name, attr, public)
            )
    try:
        decl, operation = schema.resolve_operation(type_name, member)
    except UnknownOperationError:
        raise UnknownAttributeError(
            f"{type_name} has no attribute or operation {member}"
        ) from None
    public = schema.is_public(type_name, member)
    return MemberPlan(
        "op", decl, public, _operation_access(member), operation=operation
    )


def _attribute_reader(
    db: "ObjectBase", type_name: str, attr: str, decl_type: str, public: bool
) -> Access:
    state = db._invocation
    rel_attr = (decl_type, attr)

    def read(handle: Handle, obj: StoredObject) -> Any:
        internal = handle._internal
        if not public and not internal and db.enforce_encapsulation:
            raise EncapsulationError(f"{type_name}.{attr} is not public")
        db.buffer.touch(obj.placement.page_id)
        tracers = state.tracers
        if tracers and not state.opaque_depth:
            oid = obj.oid
            for tracer in tracers:
                tracer.objects.add(oid)
                tracer.attributes.add(rel_attr)
        value = obj.data[attr]
        if isinstance(value, Oid):
            referenced = new_handle(Handle)
            bind_db(referenced, db)
            bind_oid(referenced, value)
            bind_internal(referenced, internal)
            return referenced
        return value

    return read


def _setter_access(db: "ObjectBase", type_name: str, attr: str, public: bool) -> Access:
    def set_value(handle: Handle, value: Any) -> None:
        handle._db.set_attr(handle._oid, attr, value)

    def access(handle: Handle, obj: StoredObject) -> Any:
        if not public and not handle._internal and db.enforce_encapsulation:
            raise EncapsulationError(f"{type_name}.set_{attr} is not public")
        return MethodType(set_value, handle)

    return access


def _operation_access(op_name: str) -> Access:
    # Encapsulation is ``invoke``'s to enforce: accessing a non-public
    # operation is allowed, calling it from outside is not.
    def call(handle: Handle, *args: Any) -> Any:
        return handle._db.invoke(handle._oid, op_name, args, internal=handle._internal)

    def access(handle: Handle, obj: StoredObject) -> Any:
        return MethodType(call, handle)

    return access
