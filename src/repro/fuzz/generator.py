"""Seeded random workload generation over the geometry/company domains.

The generator mirrors the GOMql grammar the parser accepts — forward
and backward query shapes, every comparison operator, boolean
connectives, arithmetic with unary minus and parentheses, attribute
paths, operation calls with arguments, ``in`` membership, aggregates,
string/number/boolean literals — and interleaves them with elementary
updates, operation calls, collection updates, deletes, batch scopes,
checkpoint/recover cycles and quiesce points.

Everything is drawn from one :class:`~repro.util.rng.DeterministicRng`,
so ``generate_script(seed, domain)`` is a pure function of its
arguments: a failure reproduces from its seed alone (see
``docs/TESTING.md``).

Hygiene rules the generator maintains (so scripts stay *semantically*
valid and the differential oracle compares behaviour, not error
spelling): objects are deleted only after removing them from every
collection that holds them; attribute-referenced objects (materials,
vertices in use, projects) are never deleted; a function is
materialized at most once per script; checkpoint/quiesce never happen
inside a batch scope.
"""

from __future__ import annotations

from repro.fuzz.script import Script
from repro.util.rng import DeterministicRng

_COMPARISONS = ("=", "!=", "<", "<=", ">", ">=")
_AGGREGATES = ("sum", "count", "avg", "min", "max")


def generate_script(
    seed: int, domain: str = "geometry", *, size: str = "small"
) -> Script:
    """Generate one deterministic script for ``domain`` from ``seed``."""
    return FuzzGenerator(seed, domain, size=size).generate()


class FuzzGenerator:
    """One-shot script builder (create a new instance per script)."""

    def __init__(
        self, seed: int, domain: str = "geometry", *, size: str = "small"
    ) -> None:
        if domain not in ("geometry", "company"):
            raise ValueError(f"unknown fuzz domain {domain!r}")
        self.seed = seed
        self.domain = domain
        self.size = size
        self.rng = DeterministicRng(seed)
        self.steps: list[dict] = []
        self._counter = 0
        #: label -> set of collection labels currently holding it
        self._membership: dict[str, set[str]] = {}
        #: collection label -> element type ("Cuboid", "Employee", ...)
        self._collections: dict[str, str] = {}
        self._materialized: set[str] = set()
        self._in_batch = False

    # -- plumbing -------------------------------------------------------

    def _label(self, prefix: str) -> str:
        self._counter += 1
        return f"{prefix}{self._counter}"

    def _emit(self, **step) -> None:
        self.steps.append(step)

    def _ref(self, label: str) -> dict:
        return {"$ref": label}

    def _num(self, low: float, high: float) -> float:
        return round(self.rng.uniform(low, high), 1)

    def _members_of(self, collection: str) -> list[str]:
        return sorted(
            label
            for label, held_in in self._membership.items()
            if collection in held_in
        )

    def _insert(self, collection: str, element: str) -> None:
        self._emit(op="insert", target=collection, value=self._ref(element))
        self._membership.setdefault(element, set()).add(collection)

    def _remove(self, collection: str, element: str) -> None:
        self._emit(op="remove", target=collection, value=self._ref(element))
        self._membership.setdefault(element, set()).discard(collection)

    def _delete(self, label: str) -> None:
        for collection in sorted(self._membership.get(label, set())):
            self._remove(collection, label)
        self._emit(op="delete", target=label)
        self._membership.pop(label, None)

    def _materialize(self, text: str, fids: tuple[str, ...]) -> bool:
        if self._in_batch or any(fid in self._materialized for fid in fids):
            return False
        self._materialized.update(fids)
        self._emit(op="materialize", text=text)
        return True

    def _query(self, text: str) -> None:
        self._emit(op="query", text=text)

    # -- entry point ----------------------------------------------------

    def generate(self) -> Script:
        if self.domain == "geometry":
            self._populate_geometry()
            actions = self._geometry_actions()
        else:
            self._populate_company()
            actions = self._company_actions()
        length = (
            self.rng.randint(12, 24)
            if self.size == "small"
            else self.rng.randint(30, 60)
        )
        for _ in range(length):
            self._draw_action(actions)
        if self._in_batch:  # pragma: no cover - defensive
            self._emit(op="batch_end")
            self._in_batch = False
        # Always end on a settle plus one broad query, so every script
        # exercises the final-state comparison with content.
        self._emit(op="quiesce")
        self._query(self._broad_query())
        return Script(domain=self.domain, seed=self.seed, steps=self.steps)

    def _draw_action(self, actions: list[tuple[float, object]]) -> None:
        total = sum(weight for weight, _ in actions)
        needle = self.rng.random() * total
        for weight, action in actions:
            needle -= weight
            if needle <= 0:
                action()
                return
        actions[-1][1]()  # pragma: no cover - float drift

    def _batch_scope(self, update_actions: list[tuple[float, object]]) -> None:
        if self._in_batch:
            return
        self._emit(op="batch_begin")
        self._in_batch = True
        for _ in range(self.rng.randint(2, 5)):
            self._draw_action(update_actions)
        self._emit(op="batch_end")
        self._in_batch = False

    def _checkpoint_recover(self) -> None:
        if not self._in_batch:
            self._emit(op="checkpoint_recover")

    def _quiesce(self) -> None:
        if not self._in_batch:
            self._emit(op="quiesce")

    # ==================================================================
    # Geometry domain
    # ==================================================================

    def _populate_geometry(self) -> None:
        rng = self.rng
        self.materials = [
            self._new_material() for _ in range(rng.randint(1, 3))
        ]
        self.cuboids: list[str] = []
        self.cuboid_vertices: dict[str, list[str]] = {}
        for _ in range(rng.randint(3, 7)):
            self._new_cuboid()
        self.robots = [self._new_robot() for _ in range(rng.randint(0, 2))]
        for type_name, prefix, count in (
            ("Workpieces", "w", rng.randint(1, 2)),
            ("Valuables", "vl", rng.randint(0, 1)),
        ):
            for _ in range(count):
                label = self._label(prefix)
                members = rng.sample(
                    self.cuboids, rng.randint(0, len(self.cuboids))
                )
                self._emit(
                    op="new_collection",
                    label=label,
                    type=type_name,
                    elements=members,
                )
                self._collections[label] = "Cuboid"
                for member in members:
                    self._membership.setdefault(member, set()).add(label)

    def _new_material(self) -> str:
        label = self._label("m")
        name = self.rng.choice(["Gold", "Iron", "Copper", "Wood", "Lead"])
        self._emit(
            op="new",
            label=label,
            type="Material",
            attrs={"Name": name, "SpecWeight": self._num(0.5, 20.0)},
        )
        return label

    def _new_vertex(self, x: float, y: float, z: float) -> str:
        label = self._label("v")
        self._emit(
            op="new",
            label=label,
            type="Vertex",
            attrs={"X": x, "Y": y, "Z": z},
        )
        return label

    def _new_cuboid(self) -> str:
        rng = self.rng
        ox, oy, oz = self._num(-5, 5), self._num(-5, 5), self._num(-5, 5)
        dx, dy, dz = self._num(1, 6), self._num(1, 6), self._num(1, 6)
        corners = [
            (ox, oy, oz), (ox + dx, oy, oz), (ox + dx, oy + dy, oz),
            (ox, oy + dy, oz), (ox, oy, oz + dz), (ox + dx, oy, oz + dz),
            (ox + dx, oy + dy, oz + dz), (ox, oy + dy, oz + dz),
        ]
        vertices = [self._new_vertex(*corner) for corner in corners]
        label = self._label("c")
        attrs = {
            f"V{i + 1}": self._ref(vertex) for i, vertex in enumerate(vertices)
        }
        attrs["Mat"] = self._ref(rng.choice(self.materials))
        attrs["Value"] = self._num(1, 100)
        attrs["CuboidID"] = rng.randint(1, 500)
        self._emit(op="new", label=label, type="Cuboid", attrs=attrs)
        self.cuboids.append(label)
        self.cuboid_vertices[label] = vertices
        self._membership.setdefault(label, set())
        return label

    def _new_robot(self) -> str:
        pos = self._new_vertex(
            self._num(-10, 10), self._num(-10, 10), self._num(-10, 10)
        )
        label = self._label("r")
        self._emit(
            op="new",
            label=label,
            type="Robot",
            attrs={
                "Name": f"R{self._counter}",
                "Pos": self._ref(pos),
            },
        )
        return label

    def _geometry_updates(self) -> list[tuple[float, object]]:
        return [
            (3.0, self._geo_set_value),
            (2.0, self._geo_set_vertex_coord),
            (1.5, self._geo_transform),
            (1.0, self._geo_set_material),
            (1.0, self._geo_collection_update),
            (0.7, self._geo_set_vertex_ref),
            (0.6, lambda: self._new_cuboid()),
            (0.5, self._geo_delete_cuboid),
        ]

    def _geometry_actions(self) -> list[tuple[float, object]]:
        updates = self._geometry_updates()
        return updates + [
            (3.0, self._geo_query),
            (1.2, self._geo_materialize),
            (0.8, lambda: self._batch_scope(updates + [(1.0, self._geo_query)])),
            (0.4, self._quiesce),
            (0.25, self._checkpoint_recover),
        ]

    def _geo_set_value(self) -> None:
        cuboid = self.rng.choice(self.cuboids)
        if self.rng.random() < 0.5:
            self._emit(
                op="set", target=cuboid, attr="Value",
                value=self._num(1, 100),
            )
        else:
            self._emit(
                op="set", target=cuboid, attr="CuboidID",
                value=self.rng.randint(1, 500),
            )

    def _geo_set_vertex_coord(self) -> None:
        cuboid = self.rng.choice(self.cuboids)
        vertex = self.rng.choice(self.cuboid_vertices[cuboid])
        axis = self.rng.choice(["X", "Y", "Z"])
        self._emit(
            op="set", target=vertex, attr=axis, value=self._num(-8, 8)
        )

    def _geo_set_vertex_ref(self) -> None:
        cuboid = self.rng.choice(self.cuboids)
        slot = self.rng.randint(1, 8)
        vertex = self._new_vertex(
            self._num(-5, 5), self._num(-5, 5), self._num(-5, 5)
        )
        self.cuboid_vertices[cuboid][slot - 1] = vertex
        self._emit(
            op="set", target=cuboid, attr=f"V{slot}", value=self._ref(vertex)
        )

    def _geo_set_material(self) -> None:
        material = self.rng.choice(self.materials)
        if self.rng.random() < 0.7:
            self._emit(
                op="set", target=material, attr="SpecWeight",
                value=self._num(0.5, 20.0),
            )
        else:
            self._emit(
                op="set", target=material, attr="Name",
                value=self.rng.choice(["Gold", "Iron", "Tin"]),
            )

    def _geo_transform(self) -> None:
        cuboid = self.rng.choice(self.cuboids)
        kind = self.rng.choice(["scale", "translate", "rotate"])
        if kind == "rotate":
            self._emit(
                op="call", target=cuboid, method="rotate",
                args=[self.rng.choice(["x", "y", "z"]),
                      self._num(-1.5, 1.5)],
            )
        else:
            low, high = (0.5, 2.0) if kind == "scale" else (-3.0, 3.0)
            argument = self._new_vertex(
                self._num(low, high), self._num(low, high),
                self._num(low, high),
            )
            self._emit(
                op="call", target=cuboid, method=kind,
                args=[self._ref(argument)],
            )

    def _geo_collection_update(self) -> None:
        if not self._collections:
            return
        collection = self.rng.choice(sorted(self._collections))
        members = self._members_of(collection)
        outside = [c for c in self.cuboids if c not in members]
        if members and (not outside or self.rng.random() < 0.5):
            self._remove(collection, self.rng.choice(members))
        elif outside:
            self._insert(collection, self.rng.choice(outside))

    def _geo_delete_cuboid(self) -> None:
        if len(self.cuboids) <= 2:
            return
        cuboid = self.rng.choice(self.cuboids)
        self.cuboids.remove(cuboid)
        del self.cuboid_vertices[cuboid]
        self._delete(cuboid)

    def _geo_materialize(self) -> None:
        rng = self.rng
        candidates = [
            ("range c:Cuboid materialize c.volume, c.weight",
             ("Cuboid.volume", "Cuboid.weight")),
            ("range c:Cuboid materialize c.volume", ("Cuboid.volume",)),
            ("range c:Cuboid materialize c.length", ("Cuboid.length",)),
            ("range w:Workpieces materialize w.total_volume, w.total_weight",
             ("Workpieces.total_volume", "Workpieces.total_weight")),
            ("range v:Valuables materialize v.total_value",
             ("Valuables.total_value",)),
            ("range c:Cuboid, r:Robot materialize c.distance(r)",
             ("Cuboid.distance",)),
            (f"range c:Cuboid materialize c.volume "
             f"where c.Value <= {self._num(20, 90)}",
             ("Cuboid.volume",)),
            (f"range c:Cuboid materialize c.weight "
             f"where c.CuboidID < {rng.randint(100, 400)} "
             f"and c.Value > {self._num(5, 40)}",
             ("Cuboid.weight",)),
            ("range c:Cuboid materialize c.height "
             "where c.Mat.Name != 'Gold'",
             ("Cuboid.height",)),
        ]
        text, fids = rng.choice(candidates)
        self._materialize(text, fids)

    def _geo_numeric_expr(self) -> str:
        rng = self.rng
        base = rng.choice(
            ["c.volume", "c.weight", "c.length", "c.width", "c.height",
             "c.Value", "c.CuboidID", "c.Mat.SpecWeight"]
        )
        roll = rng.random()
        if roll < 0.55:
            return base
        if roll < 0.7:
            return f"-{base}"
        operator = rng.choice(["+", "-", "*", "/"])
        constant = rng.randint(1, 9)  # nonzero: division stays total
        if roll < 0.85:
            return f"{base} {operator} {constant}"
        return f"({base} + {constant}) * {rng.randint(1, 4)}"

    def _geo_predicate(self) -> str:
        rng = self.rng

        def comparison() -> str:
            roll = rng.random()
            if roll < 0.15:
                name = rng.choice(["Gold", "Iron", "Copper"])
                return f"c.Mat.Name {rng.choice(['=', '!='])} '{name}'"
            left = self._geo_numeric_expr()
            return f"{left} {rng.choice(_COMPARISONS)} {self._num(-50, 400)}"

        roll = rng.random()
        if roll < 0.5:
            return comparison()
        if roll < 0.7:
            return f"{comparison()} and {comparison()}"
        if roll < 0.9:
            return f"{comparison()} or {comparison()}"
        return f"not ({comparison()})"

    def _geo_query(self) -> None:
        rng = self.rng
        roll = rng.random()
        if roll < 0.3:
            projection = rng.choice(
                ["c.volume", "c.weight", "c.Value", "c.CuboidID",
                 "c.CuboidID, c.volume", "c", "c.Mat.Name", "c.Mat"]
            )
            self._query(f"range c:Cuboid retrieve {projection}")
        elif roll < 0.6:
            projection = rng.choice(
                ["c.CuboidID", "c.Value", "c.CuboidID, c.weight"]
            )
            self._query(
                f"range c:Cuboid retrieve {projection} "
                f"where {self._geo_predicate()}"
            )
        elif roll < 0.75:
            aggregate = rng.choice(_AGGREGATES)
            argument = rng.choice(["c.volume", "c.Value", "c.weight"])
            text = f"range c:Cuboid retrieve {aggregate}({argument})"
            if rng.random() < 0.5:
                text += f" where {self._geo_predicate()}"
            self._query(text)
        elif roll < 0.85:
            self._query(
                "range c:Cuboid, d:Cuboid retrieve c.CuboidID, d.CuboidID "
                f"where c.volume {rng.choice(['<', '<=', '>'])} d.volume"
            )
        elif roll < 0.95 and self.robots:
            self._query(
                "range c:Cuboid, r:Robot retrieve c.CuboidID, r.Name "
                f"where c.distance(r) <= {self._num(1, 40)}"
            )
        elif self._collections:
            collection_type = self.rng.choice(["Workpieces", "Valuables"])
            self._query(
                f"range c:Cuboid, w:{collection_type} "
                "retrieve c.CuboidID where c in w"
            )
        else:
            self._query("range c:Cuboid retrieve c.volume")

    # ==================================================================
    # Company domain
    # ==================================================================

    def _populate_company(self) -> None:
        rng = self.rng
        self.projects: list[str] = []
        self.project_programmers: dict[str, str] = {}
        for _ in range(rng.randint(2, 5)):
            self._new_project()
        self.departments: list[str] = []
        self.department_emps: dict[str, str] = {}
        self.employees: list[str] = []
        self.employee_history: dict[str, str] = {}
        self.jobs: list[str] = []
        emp_no = 0
        for _ in range(rng.randint(1, 3)):
            emps = self._label("es")
            self._emit(
                op="new_collection", label=emps, type="Employees", elements=[]
            )
            self._collections[emps] = "Employee"
            department = self._label("d")
            self._emit(
                op="new",
                label=department,
                type="Department",
                attrs={
                    "DName": f"D{self._counter}",
                    "DepNo": len(self.departments),
                    "Emps": self._ref(emps),
                },
            )
            self.departments.append(department)
            self.department_emps[department] = emps
            for _ in range(rng.randint(2, 4)):
                emp_no += 1
                employee = self._new_employee(emp_no)
                self._insert(emps, employee)
                for _ in range(rng.randint(0, 3)):
                    self._new_job(employee)
        deps = self._label("ds")
        self._emit(
            op="new_collection",
            label=deps,
            type="Departments",
            elements=list(self.departments),
        )
        projs = self._label("ps")
        self.company_projects = list(self.projects)
        self._emit(
            op="new_collection",
            label=projs,
            type="Projects",
            elements=list(self.projects),
        )
        self.company = self._label("co")
        self._emit(
            op="new",
            label=self.company,
            type="Company",
            attrs={
                "CName": "ACME",
                "Deps": self._ref(deps),
                "Projs": self._ref(projs),
            },
        )

    def _new_project(self) -> str:
        programmers = self._label("pg")
        self._emit(
            op="new_collection",
            label=programmers,
            type="Employees",
            elements=[],
        )
        self._collections[programmers] = "Employee"
        label = self._label("p")
        self._emit(
            op="new",
            label=label,
            type="Project",
            attrs={
                "PName": f"P{self._counter}",
                "Status": self._num(-1000, 1000),
                "Size": self.rng.randint(1_000, 100_000),
                "Programmers": self._ref(programmers),
            },
        )
        self.projects.append(label)
        self.project_programmers[label] = programmers
        return label

    def _new_employee(self, emp_no: int) -> str:
        history = self._label("jh")
        self._emit(
            op="new_collection", label=history, type="Jobs", elements=[]
        )
        self._collections[history] = "Job"
        label = self._label("e")
        self._emit(
            op="new",
            label=label,
            type="Employee",
            attrs={
                "Name": f"E{emp_no}",
                "EmpNo": emp_no,
                "Salary": self._num(30_000, 120_000),
                "JobHistory": self._ref(history),
            },
        )
        self.employees.append(label)
        self.employee_history[label] = history
        return label

    def _new_job(self, employee: str) -> str:
        rng = self.rng
        project = rng.choice(self.projects)
        label = self._label("j")
        self._emit(
            op="new",
            label=label,
            type="Job",
            attrs={
                "Proj": self._ref(project),
                "LinesOfCode": rng.randint(100, 20_000),
                "OnTime": rng.random() < 0.6,
                "WithinBudget": rng.random() < 0.6,
            },
        )
        self.jobs.append(label)
        self._insert(self.employee_history[employee], label)
        self._insert(self.project_programmers[project], employee)
        return label

    def _company_updates(self) -> list[tuple[float, object]]:
        return [
            (3.0, self._co_set_numeric),
            (1.5, self._co_set_flag),
            (1.0, self._co_collection_update),
            (0.8, self._co_new_job),
            (0.6, self._co_project_membership),
            (0.5, self._co_delete_job),
            (0.3, self._co_delete_employee),
        ]

    def _company_actions(self) -> list[tuple[float, object]]:
        updates = self._company_updates()
        return updates + [
            (3.0, self._co_query),
            (1.2, self._co_materialize),
            (0.8, lambda: self._batch_scope(updates + [(1.0, self._co_query)])),
            (0.4, self._quiesce),
            (0.25, self._checkpoint_recover),
        ]

    def _co_set_numeric(self) -> None:
        rng = self.rng
        roll = rng.random()
        if roll < 0.35 and self.jobs:
            self._emit(
                op="set", target=rng.choice(self.jobs), attr="LinesOfCode",
                value=rng.randint(100, 20_000),
            )
        elif roll < 0.6 and self.employees:
            self._emit(
                op="set", target=rng.choice(self.employees), attr="Salary",
                value=self._num(30_000, 120_000),
            )
        elif roll < 0.85:
            self._emit(
                op="set", target=rng.choice(self.projects), attr="Status",
                value=self._num(-1000, 1000),
            )
        else:
            self._emit(
                op="set", target=rng.choice(self.projects), attr="Size",
                value=rng.randint(1_000, 100_000),
            )

    def _co_set_flag(self) -> None:
        if not self.jobs:
            return
        self._emit(
            op="set",
            target=self.rng.choice(self.jobs),
            attr=self.rng.choice(["OnTime", "WithinBudget"]),
            value=self.rng.random() < 0.5,
        )

    def _co_collection_update(self) -> None:
        rng = self.rng
        if not self.employees:
            return
        department = rng.choice(self.departments)
        emps = self.department_emps[department]
        members = self._members_of(emps)
        outside = [e for e in self.employees if e not in members]
        if members and (not outside or rng.random() < 0.5):
            self._remove(emps, rng.choice(members))
        elif outside:
            self._insert(emps, rng.choice(outside))

    def _co_new_job(self) -> None:
        if self.employees:
            self._new_job(self.rng.choice(self.employees))

    def _co_project_membership(self) -> None:
        """``add_project`` / ``drop_project`` through the operation API."""
        rng = self.rng
        inside = [p for p in self.projects if p in self.company_projects]
        outside = [p for p in self.projects if p not in self.company_projects]
        if outside and rng.random() < 0.6:
            project = rng.choice(outside)
            self._emit(
                op="call", target=self.company, method="add_project",
                args=[self._ref(project)],
            )
            self.company_projects.append(project)
        elif len(inside) > 1:
            project = rng.choice(inside)
            self._emit(
                op="call", target=self.company, method="drop_project",
                args=[self._ref(project)],
            )
            self.company_projects.remove(project)

    def _co_delete_job(self) -> None:
        if len(self.jobs) <= 1:
            return
        job = self.rng.choice(self.jobs)
        self.jobs.remove(job)
        self._delete(job)

    def _co_delete_employee(self) -> None:
        if len(self.employees) <= 2:
            return
        employee = self.rng.choice(self.employees)
        self.employees.remove(employee)
        del self.employee_history[employee]
        self._delete(employee)

    def _co_materialize(self) -> None:
        rng = self.rng
        candidates = [
            ("range e:Employee materialize e.ranking", ("Employee.ranking",)),
            ("range j:Job materialize j.assessment", ("Job.assessment",)),
            ("range co:Company materialize co.matrix", ("Company.matrix",)),
            (f"range e:Employee materialize e.ranking "
             f"where e.Salary >= {self._num(40_000, 100_000)}",
             ("Employee.ranking",)),
            (f"range j:Job materialize j.assessment "
             f"where j.LinesOfCode < {rng.randint(5_000, 18_000)}",
             ("Job.assessment",)),
        ]
        text, fids = rng.choice(candidates)
        self._materialize(text, fids)

    def _co_predicate(self, var: str) -> str:
        rng = self.rng
        choices = {
            "e": [
                lambda: f"e.Salary {rng.choice(_COMPARISONS)} "
                        f"{self._num(30_000, 120_000)}",
                lambda: f"e.ranking {rng.choice(['<', '>=', '>'])} "
                        f"{self._num(0, 20)}",
                lambda: f"e.EmpNo {rng.choice(['=', '!=', '<='])} "
                        f"{rng.randint(1, 12)}",
            ],
            "j": [
                lambda: f"j.OnTime = {rng.choice(['true', 'false'])}",
                lambda: f"j.WithinBudget != {rng.choice(['true', 'false'])}",
                lambda: f"j.LinesOfCode {rng.choice(_COMPARISONS)} "
                        f"{rng.randint(100, 20_000)}",
                lambda: f"j.Proj.Size > {rng.randint(1_000, 90_000)}",
            ],
            "p": [
                lambda: f"p.Status {rng.choice(_COMPARISONS)} "
                        f"{self._num(-900, 900)}",
                lambda: f"p.Size / 2 < {rng.randint(1_000, 50_000)}",
                lambda: f"p.PName != 'P1'",
            ],
        }
        parts = [rng.choice(choices[var])()]
        if rng.random() < 0.35:
            connective = rng.choice([" and ", " or "])
            parts.append(rng.choice(choices[var])())
            combined = connective.join(parts)
            return f"not ({combined})" if rng.random() < 0.2 else combined
        return parts[0]

    def _co_query(self) -> None:
        rng = self.rng
        roll = rng.random()
        if roll < 0.25:
            projection = rng.choice(
                ["e.ranking", "e.Salary", "e.EmpNo, e.ranking", "e.Name"]
            )
            text = f"range e:Employee retrieve {projection}"
            if rng.random() < 0.6:
                text += f" where {self._co_predicate('e')}"
            self._query(text)
        elif roll < 0.5:
            projection = rng.choice(
                ["j.assessment", "j.LinesOfCode", "j.Proj.PName"]
            )
            text = f"range j:Job retrieve {projection}"
            if rng.random() < 0.6:
                text += f" where {self._co_predicate('j')}"
            self._query(text)
        elif roll < 0.65:
            self._query(
                f"range p:Project retrieve p.PName "
                f"where {self._co_predicate('p')}"
            )
        elif roll < 0.8:
            aggregate = rng.choice(_AGGREGATES)
            argument = rng.choice(
                ["e.Salary", "e.ranking", "e.EmpNo"]
            )
            self._query(
                f"range e:Employee retrieve {aggregate}({argument})"
            )
        elif roll < 0.9:
            self._query(
                "range e:Employee, d:Department retrieve e.EmpNo, d.DName "
                "where e in d.Emps"
            )
        else:
            self._query("range p:Person retrieve p.Name")

    # -- shared ---------------------------------------------------------

    def predicate(self, var: str) -> str:
        """One ``where`` clause of the domain's predicate grammar over
        ``var`` — ``c`` (Cuboid) for geometry; ``e``/``j``/``p``
        (Employee/Job/Project) for company.  The metamorphic query
        tests draw from here without generating a whole script."""
        if self.domain == "geometry":
            if var != "c":
                raise ValueError("geometry predicates range over 'c'")
            return self._geo_predicate()
        return self._co_predicate(var)

    def _broad_query(self) -> str:
        if self.domain == "geometry":
            return "range c:Cuboid retrieve c.CuboidID, c.volume, c.weight"
        return "range e:Employee retrieve e.EmpNo, e.ranking"
