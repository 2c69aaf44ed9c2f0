"""What the compiled member plans and the fast paths could break.

* coherence — a schema change is observed by a member that was already
  resolved (and so cached) through a live handle;
* stale handles — a handle never serves a dead object's state;
* the per-thread tracer stack — two threads tracing at once record
  disjoint object sets.
"""

import threading

import pytest

from repro import InstrumentationLevel, ObjectBase
from repro.errors import EncapsulationError, NoSuchObjectError


@pytest.fixture
def db():
    database = ObjectBase()
    database.define_tuple_type(
        "Account", {"Balance": "float", "Owner": "Account"}, public=["describe"]
    )
    database.define_operation(
        "Account", "describe", [], "string", lambda self: "account"
    )
    database.define_operation(
        "Account", "audit", [], "float", lambda self: self.Balance
    )
    database.define_tuple_type("Savings", {"Rate": "float"}, supertype="Account")
    return database


class TestCoherence:
    def test_make_public_reaches_cached_attribute_setter_and_operation(self, db):
        account = db.new("Account", Balance=5.0)
        with pytest.raises(EncapsulationError):
            account.Balance
        with pytest.raises(EncapsulationError):
            account.set_Balance
        audit = account.audit  # accessing is allowed, calling is not
        with pytest.raises(EncapsulationError):
            audit()

        db.make_public("Account", "Balance", "set_Balance", "audit")

        assert account.Balance == 5.0
        account.set_Balance(7.0)
        assert account.audit() == 7.0
        # A bound operation obtained before the change re-resolves too.
        assert audit() == 7.0

    def test_override_in_subtype_replaces_cached_inherited_operation(self, db):
        savings = db.new("Savings")
        assert savings.describe() == "account"
        db.define_operation(
            "Savings", "describe", [], "string", lambda self: "savings"
        )
        assert savings.describe() == "savings"
        assert db.new("Account").describe() == "account"

    def test_strict_encapsulation_reaches_cached_operation(self, db):
        # Opaque tracing exists only where the post-operation
        # invalidation does: at INFO_HIDING.
        db.level = InstrumentationLevel.INFO_HIDING
        db.make_public("Account", "audit")
        account = db.new("Account", Balance=1.0)
        with db.trace() as before:
            account.audit()
        assert ("Account", "Balance") in before.attributes

        db.set_strict_encapsulation("Account")

        with db.trace() as after:
            account.audit()
        # The receiver is now recorded as one opaque unit (Sec. 5.3).
        assert after.objects == {account.oid}
        assert not after.attributes

    def test_new_subtype_resolves_inherited_members_of_every_kind(self, db):
        db.make_public("Account", "Balance", "set_Balance", "audit")
        account = db.new("Account", Balance=2.0)
        assert account.audit() == 2.0  # caches Account's plans

        db.define_tuple_type("Checking", {"Limit": "float"}, supertype="Account")
        checking = db.new("Checking", Balance=3.0)

        assert checking.Balance == 3.0
        checking.set_Balance(4.0)
        assert checking.audit() == 4.0
        assert account.audit() == 2.0
        with db.trace() as tracer:
            checking.Balance
        # Recorded under the declaring type, as RelAttr entries are.
        assert tracer.attributes == {("Account", "Balance")}

    def test_reference_attribute_keeps_the_handles_internal_flag(self, db):
        owner = db.new("Account", Balance=9.0)
        account = db.new("Account", Owner=owner)
        db.define_operation(
            "Account", "owner_balance", [], "float",
            lambda self: self.Owner.Balance,  # private, reached internally
        )
        db.make_public("Account", "owner_balance", "Owner")
        assert account.owner_balance() == 9.0
        with pytest.raises(EncapsulationError):
            account.Owner.Balance


class TestStaleHandles:
    @pytest.fixture
    def open_db(self, db):
        db.make_public("Account", "Balance", "set_Balance", "audit")
        return db

    def test_every_member_kind_raises_after_delete(self, open_db):
        account = open_db.new("Account", Balance=1.0)
        assert account.audit() == 1.0
        setter, audit = account.set_Balance, account.audit
        open_db.delete(account)
        for access in (
            lambda: account.Balance,
            lambda: account.set_Balance,
            lambda: account.audit,
            lambda: setter(2.0),
            audit,
        ):
            with pytest.raises(NoSuchObjectError):
                access()

    def test_handle_created_in_aborted_transaction_raises(self, open_db):
        with pytest.raises(RuntimeError):
            with open_db.transaction():
                account = open_db.new("Account", Balance=1.0)
                assert account.Balance == 1.0
                raise RuntimeError("abort")
        with pytest.raises(NoSuchObjectError):
            account.Balance
        with pytest.raises(NoSuchObjectError):
            account.audit()

    def test_old_handle_serves_the_replayed_object(self, open_db):
        account = open_db.new("Account", Balance=1.0)
        assert account.Balance == 1.0
        open_db.delete(account)
        # What recovery does: the logged create, under its original OID.
        open_db.replay_create(
            account.oid, "Account", data={"Balance": 5.0, "Owner": None}
        )
        assert account.Balance == 5.0
        account.set_Balance(6.0)
        assert account.audit() == 6.0

    def test_repr_of_stale_handle_does_not_raise(self, open_db):
        account = open_db.new("Account")
        live = repr(account)
        open_db.delete(account)
        assert live == f"<Account {account.oid!r}>"
        assert repr(account) == f"<deleted {account.oid!r}>"


class TestTracerStackIsPerThread:
    def test_two_tracing_threads_record_disjoint_objects(self, db):
        db.make_public("Account", "Balance")
        accounts = [db.new("Account", Balance=float(i)) for i in range(2)]
        both_inside = threading.Barrier(2, timeout=10)
        recorded: dict[int, set] = {}

        def read(index):
            with db.trace() as tracer:
                both_inside.wait()
                for _ in range(200):
                    accounts[index].Balance
                both_inside.wait()
            recorded[index] = tracer.objects

        threads = [threading.Thread(target=read, args=(i,)) for i in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        assert not any(thread.is_alive() for thread in threads)
        assert recorded == {0: {accounts[0].oid}, 1: {accounts[1].oid}}
