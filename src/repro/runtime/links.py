"""Association link storage and navigation.

One :class:`LinkStore` lives in every executor's store
(:class:`~repro.runtime.dispatcher.Dispatcher`), built from the
executor's associations: the model's on the abstract runtime, the
manifest's on the architecture runtimes.  Links are stored per
association as (end, handle) tables.  Multiplicity upper bounds are
enforced at ``relate`` time -- violating a declared ``1`` or ``0..1``
end raises immediately, which is the runtime analogue of the referential
integrity the generated code guarantees by construction.  Lower bounds
(a mandatory ``1``) cannot be checked per-action (links are created one
at a time), so they are checked on demand by
:meth:`LinkStore.integrity_violations`.

Failures are the host's dialect, as in :class:`repro.exec.IRExecutor`:
the store is built with the error type for misuse and the one for a
multiplicity overflow.
"""

from __future__ import annotations

from collections import defaultdict

from repro.xuml.association import Association, AssociationEnd


class LinkStore:
    """All links of one executor's associations."""

    def __init__(self, associations, error, multiplicity_error):
        self._associations: dict[str, Association] = {
            association.number: association for association in associations
        }
        self._error = error
        self._multiplicity_error = multiplicity_error
        # assoc number -> end phrase -> handle -> set of opposite handles
        self._links: dict[str, dict[str, dict[int, set[int]]]] = {
            association.number: {
                association.one.phrase: defaultdict(set),
                association.other.phrase: defaultdict(set),
            }
            for association in self._associations.values()
        }
        #: (number, from class, to class, phrase) -> link table, once checked
        self._routes: dict[tuple, dict[int, set[int]]] = {}

    # -- mutation ---------------------------------------------------------------

    def relate(self, number: str, left_handle: int, left_class: str,
               right_handle: int, right_class: str,
               phrase: str | None = None) -> None:
        """Create a link; an overflow raises the multiplicity error.

        For a reflexive association *phrase* names the end that *right*
        plays relative to *left* (matching OAL ``relate a to b across
        R1.'phrase'``).
        """
        left_end, right_end = self._ends(number, left_class, right_class,
                                         phrase)
        forward = self._links[number][right_end.phrase]
        backward = self._links[number][left_end.phrase]
        if right_handle in forward[left_handle]:
            return  # already related; relate is idempotent
        if not right_end.mult.is_many and forward[left_handle]:
            raise self._multiplicity_error(
                f"{number}: {left_class}#{left_handle} already linked "
                f"to a {right_end.class_key} ({right_end.mult} end)"
            )
        if not left_end.mult.is_many and backward[right_handle]:
            raise self._multiplicity_error(
                f"{number}: {right_class}#{right_handle} already "
                f"linked to a {left_end.class_key} ({left_end.mult} end)"
            )
        forward[left_handle].add(right_handle)
        backward[right_handle].add(left_handle)

    def unrelate(self, number: str, left_handle: int, left_class: str,
                 right_handle: int, right_class: str,
                 phrase: str | None = None) -> None:
        left_end, right_end = self._ends(number, left_class, right_class,
                                         phrase)
        forward = self._links[number][right_end.phrase]
        backward = self._links[number][left_end.phrase]
        if right_handle not in forward[left_handle]:
            raise self._error(
                f"{number}: {left_class}#{left_handle} and "
                f"{right_class}#{right_handle} are not related"
            )
        forward[left_handle].discard(right_handle)
        backward[right_handle].discard(left_handle)

    def drop_instance(self, handle: int) -> None:
        """Remove every link touching *handle* (on instance deletion)."""
        for by_phrase in self._links.values():
            phrases = list(by_phrase)
            for phrase in phrases:
                table = by_phrase[phrase]
                table.pop(handle, None)
            for phrase in phrases:
                for peers in by_phrase[phrase].values():
                    peers.discard(handle)

    # -- navigation --------------------------------------------------------------

    def navigate(self, number: str, from_handle: int, from_class: str,
                 to_class: str, phrase: str | None = None) -> tuple[int, ...]:
        """Handles of *to_class* instances linked to *from_handle*.

        Results are sorted for determinism.  A route is checked once.
        """
        route = (number, from_class, to_class, phrase)
        table = self._routes.get(route)
        if table is None:
            association = self._association(number)
            to_end = self._end(association, to_class, phrase)
            if association.opposite(to_end).class_key != from_class:
                raise self._error(
                    f"{number}: no {to_class} end reached from {from_class}")
            table = self._routes[route] = self._links[number][to_end.phrase]
        return tuple(sorted(table.get(from_handle, ())))

    def integrity_violations(self, extents) -> list[str]:
        """Check unconditional (lower-bound 1) ends across the population.

        *extents* maps class key letters to iterables of live handles.
        Returns human-readable violation strings; empty means consistent.
        """
        violations: list[str] = []
        for association in self._associations.values():
            for end, other in (
                (association.one, association.other),
                (association.other, association.one),
            ):
                if end.mult.lower == 0:
                    continue
                # every instance of `other.class_key` must see >=1 `end` partner
                table = self._links[association.number][end.phrase]
                for handle in extents.get(other.class_key, ()):
                    if not table.get(handle):
                        violations.append(
                            f"{association.number}: {other.class_key}#{handle} "
                            f"has no {end.class_key} partner "
                            f"(end requires {end.mult})"
                        )
        return violations

    # -- ends ---------------------------------------------------------------------

    def _association(self, number: str) -> Association:
        try:
            return self._associations[number]
        except KeyError:
            raise self._error(f"no association {number!r}") from None

    def _end(self, association: Association, class_key: str,
             phrase: str | None) -> AssociationEnd:
        try:
            return association.end_for(class_key, phrase)
        except KeyError as exc:
            raise self._error(exc.args[0]) from None

    def _ends(self, number, left_class, right_class, phrase):
        """(left_end, right_end) where right_end is the role right plays.

        The phrase is read only on a reflexive association, where it is
        required; on any other, left and right must sit at its two ends.
        """
        association = self._association(number)
        if not association.is_reflexive:
            phrase = None
        right_end = self._end(association, right_class, phrase)
        left_end = association.opposite(right_end)
        if left_end.class_key != left_class:
            raise self._error(
                f"{number} does not join {left_class} to {right_class}")
        return left_end, right_end
