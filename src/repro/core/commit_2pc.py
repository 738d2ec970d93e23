"""Cross-group transactions: two-phase commit over the per-group logs.

The paper scopes every transaction to one entity group; this module lifts
that limit the way Megastore (and, with different trade-offs, Consus and
Spinnaker) do — by layering a commit protocol *across* groups while keeping
each group's replicated log as the unit of replication and concurrency
control:

1. **Prepare.**  For every participant group the coordinator (the
   Transaction Client that ran the transaction) installs a *prepare* log
   entry — the transaction's branch in that group — at exactly
   ``read position + 1``, using the same Paxos machinery single-group
   transactions use.  Winning that position proves no other transaction
   touched the group between the branch's reads and its commit point;
   losing it aborts the whole transaction (branches never promote — the
   global serializability argument depends on the pin/prepare adjacency).
   Read-only branches prepare too: their empty-write entry is the read
   validation that makes the *global* history one-copy serializable, not
   just each group's.

2. **Decide.**  The commit/abort decision is made durable by a dedicated
   single-slot Paxos instance keyed by the global transaction id (see
   :mod:`repro.kvstore.txnstatus`).  Recovery completes the same instance —
   adopting any accepted value it finds, presuming ABORT only when no
   acceptor ever voted — so a coordinator crash between prepare and decide
   can never commit a proper subset of the participant groups: whatever the
   instance decides, every group follows it.

3. **Complete.**  Decision markers (``commit``/``abort`` log entries) are
   appended to each prepared group's log in the background, resolving
   in-doubt readers from the log itself and closing the bookkeeping loop the
   no-orphaned-prepare invariant checks.

Single-group transactions never enter this module — the Transaction Client
routes them down the existing commit path untouched.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Generator

from repro.model import AbortReason, Transaction
from repro.core.commit_basic import BasicPaxosCommit, find_winning_val
from repro.core.retry import backoff_delay_ms
from repro.kvstore.txnstatus import decision_group
from repro.paxos.ballot import Ballot
from repro.paxos.proposer import SynodProposer
from repro.wal.entry import LogEntry

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.client import TransactionClient, TransactionHandle


def branch_tid(gtid: str, group: str) -> str:
    """Transaction id of *gtid*'s branch in *group* (unique per group)."""
    return f"{gtid}@{group}"


def build_branch(
    gtid: str,
    group: str,
    handle: "TransactionHandle",
    participants: tuple[str, ...],
    origin: str,
    origin_dc: str,
) -> Transaction:
    """The per-group :class:`Transaction` a prepare entry carries."""
    return Transaction(
        tid=branch_tid(gtid, group),
        group=group,
        read_set=frozenset(handle.read_set),
        writes=tuple(handle.write_order),
        read_position=handle.read_position,
        origin=origin,
        origin_dc=origin_dc,
        read_snapshot=tuple(handle.read_snapshot),
        groups=participants,
    )


class CrossGroupOutcome:
    """What the coordinator reports back to the Transaction Client."""

    def __init__(self) -> None:
        self.committed = False
        self.abort_reason: AbortReason | None = None
        #: Chosen prepare position per group (groups whose prepare landed).
        self.prepare_positions: dict[str, int] = {}


class TwoPhaseCommit:
    """Client-side 2PC coordinator over the participant groups' logs."""

    #: Retry budget for driving the decision instance and decision markers.
    MAX_DECIDE_ATTEMPTS = 16

    def __init__(self, client: "TransactionClient") -> None:
        self.client = client
        self.config = client.config
        # Branch prepares reuse the basic protocol's position machinery:
        # one value, one position, no promotion, no combination.
        self._positioner = BasicPaxosCommit(client)
        self._rng = client.env.rng.stream(f"2pc.{client.node.name}")

    # ------------------------------------------------------------------
    # The protocol
    # ------------------------------------------------------------------

    def commit(
        self, gtid: str, handles: dict[str, "TransactionHandle"]
    ) -> Generator:
        """Run prepare/decide/complete; returns a :class:`CrossGroupOutcome`."""
        env = self.client.env
        participants = tuple(sorted(handles))
        branches = {
            group: build_branch(
                gtid, group, handle, participants,
                origin=self.client.node.name,
                origin_dc=self.client.datacenter,
            )
            for group, handle in handles.items()
        }

        # --- Phase 1: prepare every group in parallel --------------------
        groups = list(participants)
        processes = [
            env.process(
                self._prepare_branch(
                    branches[group], gtid, participants,
                    handles[group].leader_dc,
                ),
                name=f"2pc:{gtid}:prepare:{group}",
            )
            for group in groups
        ]
        yield env.all_of(processes)
        results = [process.value for process in processes]

        outcome = CrossGroupOutcome()
        all_prepared = True
        worst_reason: AbortReason | None = None
        for group, result in zip(groups, results):
            if result.kind == "committed":
                outcome.prepare_positions[group] = result.position
            else:
                all_prepared = False
                reason = (
                    AbortReason.TIMEOUT if result.kind == "timeout"
                    else AbortReason.PREPARE_FAILED
                )
                # Prefer the decisive reason over a mere timeout.
                if worst_reason is None or reason is AbortReason.PREPARE_FAILED:
                    worst_reason = reason

        # --- Phase 2: make the decision durable --------------------------
        decided = yield from self.decide(gtid, participants, commit=all_prepared)
        if decided is None:
            # Could not learn the instance's outcome (e.g. partitioned from
            # every quorum).  The decision may nevertheless be durably
            # COMMIT — an accept quorum whose replies were lost — so this
            # abort must stay *non-decisive* (TIMEOUT, never
            # PREPARE_FAILED unless a prepare provably lost): recovery or
            # any reader resolves the instance later.
            outcome.committed = False
            outcome.abort_reason = worst_reason or AbortReason.TIMEOUT
            return outcome
        outcome.committed = decided.kind == "commit"
        if not outcome.committed:
            outcome.abort_reason = worst_reason or AbortReason.PREPARE_FAILED
        elif not all_prepared:  # pragma: no cover - recovery cannot commit
            raise AssertionError("decision instance committed an unprepared 2PC")

        # --- Phase 3: append decision markers in the background ----------
        marker = LogEntry.marker(outcome.committed, gtid, participants)
        for group, position in outcome.prepare_positions.items():
            env.process(
                self._append_marker(group, position + 1, marker),
                name=f"2pc:{gtid}:marker:{group}",
            )
        return outcome

    # ------------------------------------------------------------------
    # Phase 1 helper
    # ------------------------------------------------------------------

    def _prepare_branch(
        self, branch: Transaction, gtid: str, participants: tuple[str, ...],
        leader_dc: str,
    ) -> Generator:
        """Compete for the branch's position; returns a _PrepareResult.

        Branches never promote past a *transaction* — the pin/prepare
        adjacency is what makes the merged history serializable — but a
        decision *marker* that beat us to the slot carries no operations at
        all, so stepping over it leaves the argument intact: still nothing
        with effects between the branch's reads and its prepare.
        """
        entry = LogEntry.prepare(branch, gtid, participants)
        position = branch.read_position + 1
        for _skip in range(self.MAX_DECIDE_ATTEMPTS):
            result = yield from self._positioner.decide_position(
                branch.group, position, branch, entry, leader_dc
            )
            if (
                result.kind == "lost"
                and result.entry is not None
                and result.entry.is_marker
            ):
                position += 1
                leader_dc = self.client._home_for(branch.group)
                continue
            return _PrepareResult(kind=result.kind, position=position)
        return _PrepareResult(kind="lost", position=position)

    # ------------------------------------------------------------------
    # Phase 2: the decision instance
    # ------------------------------------------------------------------

    def decide(
        self, gtid: str, participants: tuple[str, ...], commit: bool
    ) -> Generator:
        """Drive the single-slot decision instance; returns the decided entry,
        or ``None`` when the outcome could not be made — or learned —
        durable within the retry budget (the caller must then treat the
        transaction as in doubt, not decisively aborted).

        The proposed value is COMMIT or ABORT per *commit*; if recovery (or a
        concurrent resolver) already decided, the decided value wins — the
        caller must follow it.
        """
        proposal = LogEntry.marker(commit, gtid, participants)
        proposer = SynodProposer(
            self.client.node, decision_group(gtid), 1,
            self.client.service_names(decision_group(gtid)), self.config,
        )
        ballot = Ballot(1, f"2pc:{gtid}:{self.client.node.name}")
        for attempt in range(self.MAX_DECIDE_ATTEMPTS):
            prepare = yield from proposer.prepare(ballot)
            if prepare.chosen is not None:
                return prepare.chosen
            if prepare.successes >= proposer.majority:
                value = find_winning_val(prepare, proposal)
                accept = yield from proposer.accept(ballot, value)
                if accept.successes >= proposer.majority:
                    proposer.apply(ballot, value)
                    return value
                ballot = ballot.next_round(ballot.proposer, accept.max_promised)
            else:
                ballot = ballot.next_round(ballot.proposer, prepare.max_promised)
            # Capped-exponential backoff between ballot rounds (flat at the
            # default cap — see repro.core.retry).
            yield self.client.env.timeout(
                backoff_delay_ms(self._rng, self.config, attempt)
            )
        return None

    # ------------------------------------------------------------------
    # Phase 3: decision markers
    # ------------------------------------------------------------------

    def _append_marker(
        self, group: str, start_position: int, marker: LogEntry
    ) -> Generator:
        """Append *marker* to *group*'s log at the first free position.

        Positions may keep filling with concurrent transactions; walk
        forward until the marker lands.  Failure is tolerable — the durable
        decision instance already resolves the prepare; the marker is the
        in-log record recovery and readers prefer.
        """
        position = start_position
        identity = f"2pc:{marker.gtid}:marker:{group}:{self.client.node.name}"
        for attempt in range(self.MAX_DECIDE_ATTEMPTS):
            proposer = SynodProposer(
                self.client.node, group, position,
                self.client.service_names(group), self.config,
            )
            ballot = Ballot(1, identity)
            prepare = yield from proposer.prepare(ballot)
            if prepare.chosen is not None:
                if prepare.chosen.vote_key == marker.vote_key:
                    return position
                position += 1
                continue
            if prepare.successes < proposer.majority:
                yield self.client.env.timeout(
                    backoff_delay_ms(self._rng, self.config, attempt)
                )
                continue
            value = find_winning_val(prepare, marker)
            accept = yield from proposer.accept(ballot, value)
            if accept.successes >= proposer.majority:
                proposer.apply(ballot, value)
                if value.vote_key == marker.vote_key:
                    return position
            position += 1
        return None


class _PrepareResult:
    def __init__(self, kind: str, position: int) -> None:
        self.kind = kind
        self.position = position
