"""In-memory distributed checkpoints with buddy-rank replication.

A dead rank takes its node's filesystem with it in the failure model we
simulate, so the parallel drivers recover from memory: each rank keeps its
checkpoint entry in its own node-local store (``context.node_store``, a
dict in the rank's own memory, which nobody else reads) and replicates a
copy to its **buddy**, the next rank around the ring, via a real message.
Any single failure then leaves every entry reachable: the dead rank's
block survives in its buddy's store.  This is the classic in-memory buddy checkpointing scheme
of large MPI codes, scaled down to the threads-as-ranks runtime.

An entry stores the rank's local tensor block *with its global slice
coordinates*, so recovery never needs the dead grid's arithmetic: one
``alltoall`` sends each surviving block, cut to the overlaps, straight
to its owners on whatever grid the survivors form
(:func:`repro.dist.redistribute.cut`), and no rank ever holds more than
its own block of the new layout.

Entries are keyed by the *epoch* (communicator id) that wrote them, so
blocks saved before and after a shrink never mix: a complete set is
``nprocs`` entries from one epoch, any epoch.

The optional **durable tier** (``ckpt_dir=``) additionally writes every
step in the one checkpoint format of :mod:`repro.core.checkpoint` — each
rank writes its own block and the buddy copy it holds as tensor shards
(shard 0's two holders write the replicated state beside it), then
rank 0 commits the manifest naming every file with its length and
CRC32 — so a *total* world crash (every rank dead, the master gone) can
be survived by a new ``run_spmd`` invocation resuming from the
directory, each rank reading only the shards its block overlaps.

The drivers run the recovery themselves: ``sthosvd(dt, checkpoint=ckpt)``
and ``hooi(dt, ranks, checkpoint=ckpt)`` inside any ``run_spmd`` world
(:func:`repro.core.modeloop.recovering`); ``resilience=True`` is for
message faults and not needed to survive a rank failure.
"""

from __future__ import annotations

import os
from typing import Any

import numpy as np

from ..core import checkpoint as fmt
from ..dist.redistribute import assemble, block_bounds, cut, overlap
from ..errors import CheckpointError, ConfigurationError
from ..obs._hook import record_event as _record_event
from ..util.durable import write_shard

__all__ = ["DistributedCheckpoint"]

# User tag reserved for the buddy-copy exchange.  Drivers communicate
# through collectives (negative internal tags), so any non-negative tag
# is free on their communicators; picking a large one keeps accidental
# collision with test programs' small hand-picked tags unlikely.
_BUDDY_TAG = 988_000


class DistributedCheckpoint:
    """Buddy-replicated in-memory checkpoint over an SPMD context.

    One instance is shared SPMD-style: every rank constructs it with the
    same ``name``/``keep`` and calls :meth:`save` collectively.  State
    lives in each rank's node store (``comm.context.node_store``, in the
    rank's own memory on every backend), so the instance itself is
    stateless and cheap.

    ``keep`` bounds retained steps per rank: after saving step ``s``,
    entries at steps ``<= s - keep`` are pruned from the local slot.

    ``ckpt_dir`` enables the durable tier: blocks and buddy copies are
    mirrored to that directory and committed under a per-step manifest,
    so :meth:`resume_from_disk` can restart a *fresh* world after every
    rank (and the master) died.

    Hand it to ``sthosvd``/``hooi`` on a distributed tensor
    (``checkpoint=``): the driver saves every step and, on a rank
    failure, recovers with :meth:`recover` and resumes.
    """

    def __init__(self, name: str = "ckpt", keep: int = 2,
                 ckpt_dir: str | None = None) -> None:
        if keep < 1:
            raise CheckpointError("keep must be >= 1")
        self.name = name
        self.keep = keep
        self.ckpt_dir = ckpt_dir
        # The *input* tensor's shape and dtype, pinned by
        # :meth:`resume_from_disk`; the stored blocks themselves are
        # progressively truncated, so only this records what run the
        # checkpoint belongs to.
        self.fingerprint: dict = {}

    # -- saving ---------------------------------------------------------
    def save(self, dt, step: int, meta: dict) -> None:
        """Checkpoint ``dt``'s local block + replicated ``meta`` (collective).

        ``meta`` is the driver's replicated resume state (completed
        steps, factors, singular values, ...); every rank passes a
        bitwise-identical copy, so recovery can read it from any
        survivor's own entry.
        """
        comm = dt.comm
        store = comm.context.node_store(comm.world_rank)
        entry = {
            "name": self.name,
            "epoch": comm.comm_id,
            "step": int(step),
            "owner": comm.rank,
            "nprocs": comm.size,
            "global_shape": tuple(int(s) for s in dt.global_shape),
            "dtype": np.dtype(dt.dtype).name,
            "slices": tuple(
                (int(s.start), int(s.stop)) for s in dt.local_slices()
            ),
            "block": np.array(dt.local.data, copy=True, order="F"),
            "meta": meta,
        }
        self._put(store, entry)
        buddy_entry = None
        if comm.size > 1:
            right = (comm.rank + 1) % comm.size
            left = (comm.rank - 1) % comm.size
            comm.send(entry, right, tag=_BUDDY_TAG)
            buddy_entry = comm.recv(left, tag=_BUDDY_TAG)
            self._put(store, buddy_entry)
        self._prune(store, step)
        if self.ckpt_dir is not None:
            self._save_to_disk(comm, entry, buddy_entry)
        _record_event(
            "checkpoint", self.name, step=int(step), epoch=comm.comm_id,
            nbytes=int(entry["block"].nbytes),
        )

    def _put(self, store: dict, entry: dict) -> None:
        store[(self.name, entry["epoch"], entry["step"],
               entry["owner"])] = entry

    def _prune(self, store: dict, current_step: int) -> None:
        horizon = current_step - self.keep
        for key in [k for k in store
                    if k[0] == self.name and k[2] <= horizon]:
            del store[key]

    # -- durable tier ---------------------------------------------------
    def _path(self, epoch: int, step: int, part: str) -> str:
        return os.path.join(self.ckpt_dir,
                            f"{self.name}-s{step:06d}-e{epoch}-{part}")

    def _manifest_path(self, epoch: int, step: int) -> str:
        return os.path.join(
            self.ckpt_dir,
            f"{self.name}-manifest-s{step:06d}-e{epoch}.json",
        )

    def _save_to_disk(self, comm, entry: dict,
                      buddy_entry: dict | None) -> None:
        """Land this step's files durably; rank 0 commits the manifest.

        Every rank writes its own block and the buddy copy it holds
        (two independent copies of every block on disk), shard 0's two
        holders write the replicated state beside it, and every rank
        reports each file's length and checksum to rank 0 — a gather,
        so rank 0 knows all files are durable before it renames the
        manifest into place.  The manifest is the commit point: a crash
        mid-save leaves at worst an uncommitted pile of files and the
        previous manifest still wins.
        """
        os.makedirs(self.ckpt_dir, exist_ok=True)
        epoch, step = entry["epoch"], entry["step"]
        written = {}
        for kind, held in (("own", entry), ("buddy", buddy_entry)):
            if held is None:
                continue
            path = self._path(epoch, step, f"{kind}-{held['owner']:04d}.bin")
            written[os.path.basename(path)] = fmt.write_block(
                path, held["block"])
            if held["owner"] == 0:
                path = self._path(epoch, step, f"{kind}-state.shard")
                written[os.path.basename(path)] = write_shard(
                    path, held["meta"])
        reports = comm.gather((entry["slices"], written), root=0)
        if comm.rank == 0:
            # A world of one has no buddy copies.
            kinds = ("own", "buddy")[:min(comm.size, 2)]

            def files(part: str) -> list:
                return [os.path.basename(self._path(epoch, step,
                                                    f"{kind}-{part}"))
                        for kind in kinds]

            fmt.commit(
                self._manifest_path(epoch, step), step=step, epoch=epoch,
                fingerprint={"world": f"{comm.size} ranks",
                             "dtype": entry["dtype"], **self.fingerprint},
                shape=entry["global_shape"], dtype=entry["dtype"],
                state_files=files("state.shard"),
                shards=[(slices, files(f"{owner:04d}.bin"))
                        for owner, (slices, _) in enumerate(reports)],
                checks={f: c for _, report in reports
                        for f, c in report.items()},
            )
            self._prune_disk(step)

    def _prune_disk(self, current_step: int) -> None:
        horizon = current_step - self.keep
        prefix = f"{self.name}-"
        for fname in os.listdir(self.ckpt_dir):
            if not fname.startswith(prefix):
                continue
            part = fname[len(prefix):]
            if part.startswith("manifest-"):
                part = part[len("manifest-"):]
            if not part.startswith("s"):
                continue
            try:
                step = int(part[1:7])
            except ValueError:
                continue
            if step <= horizon:
                try:
                    os.remove(os.path.join(self.ckpt_dir, fname))
                except OSError:  # pragma: no cover - concurrent prune
                    pass

    def manifests(self) -> list[tuple[int, int, str]]:
        """Committed ``(step, epoch, path)`` manifests, newest last."""
        if self.ckpt_dir is None or not os.path.isdir(self.ckpt_dir):
            return []
        found = []
        prefix = f"{self.name}-manifest-"
        for fname in sorted(os.listdir(self.ckpt_dir)):
            if not (fname.startswith(prefix) and fname.endswith(".json")):
                continue
            try:
                stem = fname[len(prefix):-len(".json")]
                s_part, e_part = stem.split("-", 1)
                found.append((int(s_part[1:]), int(e_part[1:]),
                              os.path.join(self.ckpt_dir, fname)))
            except (ValueError, IndexError):
                continue
        found.sort(key=lambda t: (t[0], t[1]))
        return found

    def resume_from_disk(self, tensor):
        """The newest committed step on disk, laid out like ``tensor``.

        Collective over ``tensor.comm`` (typically the brand-new world
        of a restarted ``run_spmd`` invocation), whose input ``tensor``
        pins the fingerprint: a manifest whose dtype or global shape
        differs from it, or whose world size differs from the
        communicator's, raises :class:`~repro.errors.CheckpointError`
        on every rank rather than silently resuming the wrong run; every
        manifest this checkpoint commits from then on carries it.

        Returns ``(step, meta, tensor)`` — the step's tensor on
        ``tensor.comms``, each rank having read only the shards that
        overlap its block — or None when the directory holds no
        committed manifest.  Arrays in ``meta`` come back bitwise; the
        rest went through JSON (tuples are lists, dict keys strings).
        """
        if self.ckpt_dir is None:
            raise CheckpointError(
                "resume_from_disk needs a DistributedCheckpoint built "
                "with ckpt_dir=")
        comm = tensor.comm
        self.fingerprint = {"shape": [int(s) for s in tensor.global_shape],
                            "dtype": np.dtype(tensor.dtype).name}
        # No rank commits before every rank has passed this point (a
        # save's commit waits on a gather), so all see the same list.
        committed = self.manifests()
        if not committed:
            return None
        error = None
        try:
            manifest = fmt.load(committed[-1][2], {
                "world": f"{comm.size} ranks", **self.fingerprint})
            meta = fmt.read_state(self.ckpt_dir, manifest)
            mine = block_bounds(manifest["shape"], tensor.grid, comm.rank)
            pieces = [
                cut(shard["slices"],
                    fmt.read_block(self.ckpt_dir, manifest, i), mine)
                for i, shard in enumerate(manifest["shards"])
                if overlap(shard["slices"], mine) is not None
            ]
        except (OSError, CheckpointError, ConfigurationError) as exc:
            error = f"checkpoint {self.name!r}: {exc}"
        # A shard only some ranks read may be the one that is bad.
        errors = [e for e in comm.allgather(error) if e is not None]
        if errors:
            raise CheckpointError(errors[0])
        step = int(manifest["step"])
        _record_event("checkpoint.resume_disk", self.name, step=step)
        return step, meta, assemble(tensor.comms, manifest["shape"],
                                    manifest["dtype"], pieces)

    # -- recovery -------------------------------------------------------
    def recover(self, comms):
        """The newest complete step, laid out on ``comms`` (collective).

        For the survivors of a failure, after the shrink: ``comms`` is
        the grid they re-laid over the shrunk communicator.  A step is
        complete when the survivors jointly hold all ``nprocs`` owners'
        entries from one epoch; the newest wins, and between epochs that
        saved the same step the newer.  Returns ``(step, meta, tensor)``
        with ``tensor`` that step's tensor on ``comms``.

        One ``alltoall`` moves it: each entry, the owner's copy or a
        buddy's, is sent by its lowest-ranked holder, cut to the block
        of every rank it overlaps, so a rank receives its own block and
        nothing more — no rank gathers the tensor.  The replicated meta
        rides along from one holder.  The same exchange re-replicates
        every entry left single-copy by the failure (to its owner's rank
        when that is another rank, else to the holder's right
        neighbour), so the *next* failure cannot take the last copy.
        Raises :class:`~repro.errors.CheckpointError` when no complete
        step survives.
        """
        comm = comms.comm
        held = self._held(comm)
        inventory = comm.allgather(
            [(e["epoch"], e["step"], e["nprocs"], e["owner"]) for e in held])
        holders: dict[tuple, dict[int, list[int]]] = {}
        for rank, entries in enumerate(inventory):
            for epoch, step, nprocs, owner in entries:
                holders.setdefault((epoch, step, nprocs), {}).setdefault(
                    owner, []).append(rank)
        complete = [key for key, owners in holders.items()
                    if len(owners) == key[2]]
        if not complete:
            raise CheckpointError(
                f"checkpoint {self.name!r}: no complete step survives "
                f"on the shrunk communicator (a rank and its buddy died?)"
            )
        epoch, step, nprocs = max(complete, key=lambda k: (k[1], k[0]))
        who = holders[(epoch, step, nprocs)]
        # With keep=1 a survivor whose next save ran to its end pruned
        # this step while a peer whose save failed kept it: a rank may
        # hold none of it, and then it only receives.
        mine = {e["owner"]: e for e in held
                if (e["epoch"], e["step"]) == (epoch, step)}
        outgoing = [[None, [], []] for _ in range(comm.size)]
        if mine:
            ref = next(iter(mine.values()))
            shape = ref["global_shape"]
            if comm.rank == who[min(who)][0]:
                for out in outgoing:
                    out[0] = (ref["meta"], shape, ref["dtype"])
            for owner, entry in mine.items():
                if who[owner][0] != comm.rank:
                    continue  # a lower-ranked holder sends it
                for r in range(comm.size):
                    part = cut(entry["slices"], entry["block"],
                               block_bounds(shape, comms.grid, r))
                    if part is not None:
                        outgoing[r][1].append(part)
        copies = 0
        for owner, ranks in sorted(who.items()):
            if len(ranks) > 1 or comm.size < 2:
                continue
            src = ranks[0]
            dst = (owner if owner < comm.size and owner != src
                   else (src + 1) % comm.size)
            copies += 1
            if comm.rank == src:
                outgoing[dst][2].append(mine[owner])
        arrived = comm.alltoall(outgoing)
        meta, shape, dtype = next(a[0] for a in arrived if a[0] is not None)
        store = comm.context.node_store(comm.world_rank)
        for _state, _parts, entries in arrived:
            for entry in entries:
                self._put(store, entry)
        _record_event("checkpoint.recover", self.name, step=int(step),
                      epoch=int(epoch), copies=copies)
        return step, meta, assemble(
            comms, shape, dtype, [p for a in arrived for p in a[1]])

    def _held(self, comm) -> list[dict[str, Any]]:
        """This rank's stored entries for this checkpoint name."""
        return [
            entry for key, entry in
            comm.context.node_store(comm.world_rank).items()
            if key[0] == self.name
        ]
