"""The scalar traffic driver: the per-PE issue loop, kept as an oracle.

:class:`~repro.workloads.synthetic.SyntheticTrafficDriver` draws a
tick's coins, collects the firing PEs' ops and issues them with one
``Ultracomputer.issue_many`` call, and reads reply round trips from the
PNIs' rows.  Before that, its tick asked each PE's PNI ``can_issue``
and ``issue`` in turn, right after the PE's draws, and popped every
reply's record; that loop is kept here verbatim as
:class:`ScalarTrafficDriver`, the reference the batched driver is
checked against.

Import it from tests as ``from scalar_traffic import ScalarTrafficDriver``
(the suite puts ``tests/`` on ``sys.path``).
"""

from __future__ import annotations

from repro.workloads.synthetic import SyntheticTrafficDriver


class ScalarTrafficDriver(SyntheticTrafficDriver):
    """One PE at a time: its coin, its op, then its PNI's ``can_issue``
    and ``issue``; replies are popped as records."""

    def tick(self, cycle: int) -> None:
        spec = self.spec
        for pe, pni in enumerate(self.machine.pnis):
            if (
                spec.requests_per_pe is not None
                and self._issued_per_pe[pe] >= spec.requests_per_pe
            ):
                continue
            if self._rng.random() >= spec.rate:
                continue
            self.offered += 1
            op = self._next_op(pe)
            if pni.can_issue(op):
                pni.issue(op, cycle)
                self._issued_per_pe[pe] += 1
            else:
                self.blocked += 1
        self._collect()

    def _collect(self) -> None:
        replied = self.machine._pni_replied
        if not replied:
            return
        pnis = self.machine.pnis
        latencies = self.latencies
        for pe in sorted(replied):
            while True:
                record = pnis[pe].pop_reply()
                if record is None:
                    break
                latencies.append(record.round_trip)
        replied.clear()
