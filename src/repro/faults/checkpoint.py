"""In-memory distributed checkpoints with buddy-rank replication.

The out-of-core driver checkpoints to disk (:mod:`repro.core.checkpoint`);
the *parallel* drivers cannot — a dead rank takes its node's filesystem
with it in the failure model we simulate.  Instead each rank keeps its
checkpoint entry in its own node-local store (the context's per-rank
slot, which nobody else reads) and replicates a copy to its **buddy**,
the next rank around the ring, via a real message.  Any single failure
then leaves every entry reachable: the dead rank's block survives in its
buddy's store.  This is the classic in-memory buddy checkpointing scheme
of large MPI codes, scaled down to the threads-as-ranks runtime.

An entry stores the rank's local tensor block *with its global slice
coordinates*, so recovery never needs the dead grid's arithmetic: the
survivors gather every block of the most recent complete step to the
root of the shrunk communicator, paste them into a full tensor by
coordinates, and redistribute over whatever grid the survivors form
(:func:`repro.dist.redistribute.distribute_from_root`).

Entries are keyed by the *epoch* (communicator id) that wrote them, so
blocks saved before and after a shrink never mix: a complete set is
``nprocs`` entries from one epoch, any epoch.

The optional **durable tier** (``ckpt_dir=``) additionally lands every
shard on disk through :mod:`repro.util.durable` — each rank writes its
own block and the buddy copy it holds as checksummed shards, then
rank 0 commits a versioned JSON manifest naming every shard with its
length and CRC32 — so a *total* world crash (every rank dead, the
master gone) can be survived by a new ``run_spmd`` invocation resuming
from the directory.
"""

from __future__ import annotations

import os
from typing import Any

import numpy as np

from ..errors import CheckpointError
from ..obs.recorder import record_event as _record_event
from ..util.durable import (
    commit_manifest,
    load_manifest,
    read_shard,
    write_shard,
)

__all__ = ["DistributedCheckpoint"]

#: Manifest schema tag; bump on incompatible layout changes.
_MANIFEST_SCHEMA = "repro-dckpt/2"

# User tag reserved for the buddy-copy exchange.  Drivers communicate
# through collectives (negative internal tags), so any non-negative tag
# is free on their communicators; picking a large one keeps accidental
# collision with test programs' small hand-picked tags unlikely.
_BUDDY_TAG = 988_000


def _paste(shape, dtype, blocks) -> np.ndarray:
    """The full tensor from ``(slices, block)`` pairs: every block lands
    at the global coordinates it was saved with, whatever grid wrote it."""
    full = np.zeros(tuple(int(s) for s in shape), dtype=np.dtype(dtype),
                    order="F")
    for slices, block in blocks:
        full[tuple(slice(a, b) for a, b in slices)] = block
    return full


class DistributedCheckpoint:
    """Buddy-replicated in-memory checkpoint over an SPMD context.

    One instance is shared SPMD-style: every rank constructs it with the
    same ``name``/``keep`` and calls :meth:`save` collectively.  State
    lives in the :class:`~repro.mpi.context.SpmdContext` node store, so
    the instance itself is stateless and cheap.

    ``keep`` bounds retained steps per rank: after saving step ``s``,
    entries at steps ``<= s - keep`` are pruned from the local slot.

    ``ckpt_dir`` enables the durable tier: shards and buddy copies are
    mirrored to that directory and committed under a per-step manifest,
    so :meth:`resume_from_disk` can restart a *fresh* world after every
    rank (and the master) died.
    """

    def __init__(self, name: str = "ckpt", keep: int = 2,
                 ckpt_dir: str | None = None) -> None:
        if keep < 1:
            raise CheckpointError("keep must be >= 1")
        self.name = name
        self.keep = keep
        self.ckpt_dir = ckpt_dir
        # The owning driver may pin the *input* tensor's fingerprint
        # (set on the root rank, whose manifest writes carry it); the
        # stored blocks themselves are progressively truncated, so only
        # this records what run the checkpoint belongs to.
        self.input_info: dict | None = None

    # -- saving ---------------------------------------------------------
    def save(self, dt, step: int, meta: dict) -> None:
        """Checkpoint ``dt``'s local block + replicated ``meta`` (collective).

        ``meta`` is the driver's replicated resume state (completed
        steps, factors, singular values, ...); every rank passes a
        bitwise-identical copy, so recovery can read it from any
        survivor's own entry.
        """
        comm = dt.comm
        ctx = comm.context
        me_world = comm.world_rank
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
        key = (self.name, entry["epoch"], entry["step"], entry["owner"])
        ctx.store_put(me_world, key, entry)
        buddy_entry = None
        if comm.size > 1:
            right = (comm.rank + 1) % comm.size
            left = (comm.rank - 1) % comm.size
            comm.send(entry, right, tag=_BUDDY_TAG)
            buddy_entry = comm.recv(left, tag=_BUDDY_TAG)
            buddy_key = (
                self.name, buddy_entry["epoch"], buddy_entry["step"],
                buddy_entry["owner"],
            )
            ctx.store_put(me_world, buddy_key, buddy_entry)
        self._prune(ctx, me_world, step)
        if self.ckpt_dir is not None:
            self._save_to_disk(comm, entry, buddy_entry)
        _record_event(
            "checkpoint", self.name, step=int(step), epoch=comm.comm_id,
            nbytes=int(entry["block"].nbytes),
        )

    def _prune(self, ctx, holder: int, current_step: int) -> None:
        horizon = current_step - self.keep
        for key, _entry in ctx.store_items(holder):
            if key[0] == self.name and key[2] <= horizon:
                ctx.store_delete(holder, key)

    # -- durable tier ---------------------------------------------------
    def _shard_path(self, epoch: int, step: int, owner: int,
                    kind: str) -> str:
        return os.path.join(
            self.ckpt_dir,
            f"{self.name}-s{step:06d}-e{epoch}-{kind}-{owner:04d}.shard",
        )

    def _manifest_path(self, epoch: int, step: int) -> str:
        return os.path.join(
            self.ckpt_dir,
            f"{self.name}-manifest-s{step:06d}-e{epoch}.json",
        )

    def _save_to_disk(self, comm, entry: dict,
                      buddy_entry: dict | None) -> None:
        """Land this step's shards durably; rank 0 commits the manifest.

        Every rank writes its own block and the buddy copy it holds
        (two independent copies of every shard on disk) and reports
        each file's length and checksum to rank 0 — a gather, so rank 0
        knows all shards are durable before it renames the manifest
        into place.  The manifest is the commit point: a crash mid-save
        leaves at worst an uncommitted pile of shards and the previous
        manifest still wins.
        """
        os.makedirs(self.ckpt_dir, exist_ok=True)
        epoch, step = entry["epoch"], entry["step"]
        written = {}
        for kind, shard in (("own", entry), ("buddy", buddy_entry)):
            if shard is not None:
                path = self._shard_path(
                    shard["epoch"], shard["step"], shard["owner"], kind)
                written[os.path.basename(path)] = write_shard(path, shard)
        reports = comm.gather(written, root=0)
        if comm.rank == 0:
            commit_manifest(self._manifest_path(epoch, step), {
                "name": self.name,
                "step": int(step),
                "epoch": int(epoch),
                "nprocs": int(entry["nprocs"]),
                "global_shape": [int(s) for s in entry["global_shape"]],
                "dtype": entry["dtype"],
                "input_shape": (
                    list(self.input_info["shape"])
                    if self.input_info else None
                ),
                "input_dtype": (
                    self.input_info["dtype"] if self.input_info else None
                ),
                "shards": {
                    str(o): {
                        "own": os.path.basename(
                            self._shard_path(epoch, step, o, "own")),
                        "buddy": os.path.basename(
                            self._shard_path(epoch, step, o, "buddy")),
                    }
                    for o in range(entry["nprocs"])
                },
                # file -> [nbytes, crc32], as each writer measured it
                "checks": {f: c for report in reports
                           for f, c in report.items()},
            }, _MANIFEST_SCHEMA)
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

    def resume_from_disk(self, comm, full=None):
        """Restart a fresh world from the newest on-disk manifest.

        Collective over ``comm`` (typically the brand-new world of a
        restarted ``run_spmd`` invocation).  Returns ``(step, meta,
        full)`` with the reassembled tensor on rank 0 (None elsewhere),
        or None when the directory holds no committed manifest.  Arrays
        in ``meta`` come back bitwise; the rest went through JSON
        (tuples are lists, dict keys strings).

        ``full`` — the caller's input tensor on rank 0 — anchors the
        refusal checks: a manifest whose dtype or global shape does not
        match it, or whose world size does not match ``comm.size``,
        raises :class:`~repro.errors.CheckpointError` on every rank
        rather than silently resuming the wrong run.
        """
        if self.ckpt_dir is None:
            raise CheckpointError(
                "resume_from_disk needs a DistributedCheckpoint built "
                "with ckpt_dir=")
        payload = None
        full_out = None
        if comm.rank == 0:
            loaded = self._load_newest_on_root(comm.size, full)
            if loaded[0] == "ok":
                # The reassembled tensor stays on the root; peers only
                # need the verdict, the step, and the replicated meta.
                payload = ("ok", loaded[1], loaded[2])
                full_out = loaded[3]
            else:
                payload = loaded
        payload = comm.bcast(payload, root=0)
        status = payload[0]
        if status == "none":
            return None
        if status == "err":
            raise CheckpointError(payload[1])
        _status, step, meta = payload
        _record_event(
            "checkpoint.resume_disk", self.name, step=int(step),
        )
        return step, meta, full_out

    def _load_newest_on_root(self, nprocs: int, full):
        """Rank 0: pick, validate, and reassemble the newest manifest.

        Returns a bcast-able status tuple so peers either proceed or
        raise the same refusal — never deadlock on a one-sided error.
        """
        committed = self.manifests()
        if not committed:
            return ("none",)
        step, epoch, path = committed[-1]
        try:
            manifest = load_manifest(path, _MANIFEST_SCHEMA)
        except (OSError, CheckpointError) as exc:
            return ("err", f"checkpoint {self.name!r}: {exc}")
        if int(manifest["nprocs"]) != int(nprocs):
            return ("err",
                    f"checkpoint {self.name!r} was written by "
                    f"{manifest['nprocs']} ranks; refusing to resume on "
                    f"a world of {nprocs} (world-shape mismatch)")
        if full is not None:
            want_shape = manifest.get("input_shape")
            if want_shape is not None and (
                    tuple(int(s) for s in full.shape)
                    != tuple(int(s) for s in want_shape)):
                return ("err",
                        f"checkpoint {self.name!r} belongs to an input "
                        f"tensor of shape {tuple(want_shape)}; refusing "
                        f"to resume a run over shape {tuple(full.shape)}")
            want_dtype = manifest.get("input_dtype") or manifest["dtype"]
            if np.dtype(want_dtype) != np.dtype(full.dtype):
                return ("err",
                        f"checkpoint {self.name!r} stores dtype "
                        f"{np.dtype(want_dtype).name}; refusing to "
                        f"resume a run over dtype "
                        f"{np.dtype(full.dtype).name}")
        entries = []
        for owner in range(int(manifest["nprocs"])):
            files = manifest["shards"][str(owner)]
            entry = None
            for kind in ("own", "buddy"):
                try:
                    entry = read_shard(
                        os.path.join(self.ckpt_dir, files[kind]),
                        *manifest["checks"][files[kind]])
                    break
                except (OSError, CheckpointError, KeyError):
                    continue  # KeyError: never written (a world of one)
            if entry is None:
                return ("err",
                        f"checkpoint {self.name!r}: both copies of "
                        f"shard {owner} (step {step}) are unreadable")
            entries.append(entry)
        out = _paste(manifest["global_shape"], manifest["dtype"],
                     [(e["slices"], e["block"]) for e in entries])
        return ("ok", int(step), entries[0]["meta"], out)

    # -- recovery -------------------------------------------------------
    def latest_complete(self, new_comm) -> tuple[int, int, int] | None:
        """``(epoch, step, nprocs)`` of the newest complete step (collective).

        A step is complete when the survivors jointly hold all
        ``nprocs`` owners' entries from one epoch.  Returns None when no
        complete step survives (e.g. a rank *and* its buddy died).
        """
        mine = self._held(new_comm)
        inventory = new_comm.allgather(
            [(e["epoch"], e["step"], e["nprocs"], e["owner"]) for e in mine]
        )
        owners: dict[tuple[int, int, int], set] = {}
        for rank_inv in inventory:
            for epoch, step, nprocs, owner in rank_inv:
                owners.setdefault((epoch, step, nprocs), set()).add(owner)
        complete = [
            key for key, have in owners.items()
            if len(have) == key[2]
        ]
        if not complete:
            return None
        # Newest step wins; between epochs that saved the same step
        # (a re-checkpoint after a previous recovery), the newer epoch.
        return max(complete, key=lambda k: (k[1], k[0]))

    def recover(self, new_comm, root: int = 0):
        """Assemble the newest complete checkpoint on the shrunk world.

        Collective over ``new_comm`` (the survivors, post-shrink).
        Returns ``(step, meta, full)``: the completed-step count, the
        replicated driver meta, and — on ``root`` only — the full
        tensor reassembled from the surviving blocks (None elsewhere).
        Raises :class:`~repro.errors.CheckpointError` when no complete
        step survives.
        """
        chosen = self.latest_complete(new_comm)
        if chosen is None:
            raise CheckpointError(
                f"checkpoint {self.name!r}: no complete step survives "
                f"on the shrunk communicator (a rank and its buddy died?)"
            )
        epoch, step, _nprocs = chosen
        held = [
            e for e in self._held(new_comm)
            if e["epoch"] == epoch and e["step"] == step
        ]
        # ``meta`` (and the global shape/dtype) are replicated, but
        # *this* rank may hold nothing: a replacement rank rejoining
        # after ``recover="replace"`` starts with an empty store — and
        # it may well be the root.  Take the first survivor's copy.
        refs = new_comm.allgather(
            (held[0]["meta"], held[0]["global_shape"], held[0]["dtype"])
            if held else None
        )
        ref = next((r for r in refs if r is not None), None)
        if ref is None:  # pragma: no cover - latest_complete found one
            raise CheckpointError(
                f"checkpoint {self.name!r}: no rank holds an entry for "
                f"step {step} (epoch {epoch})"
            )
        meta, shape, dtype = ref
        parts = new_comm.gather(
            [(e["owner"], e["slices"], e["block"]) for e in held], root=root,
        )
        full = None
        if new_comm.rank == root:
            blocks: dict[int, tuple] = {}
            for rank_parts in parts:
                for owner, slices, block in rank_parts:
                    blocks.setdefault(owner, (slices, block))
            full = _paste(shape, dtype, blocks.values())
        return step, meta, full

    def rebalance(self, comm) -> int:
        """Re-replicate entries left single-copy by a failure (collective).

        After a shrink, entries whose second copy lived on the dead rank
        survive only in one store — a follow-up failure of *that* holder
        would lose the last copy.  Every rank computes the same plan
        from an allgathered inventory of the newest complete step, and
        each single-copy entry is copied to one more rank (the owner's
        slot when it is empty, else the holder's current ring-right).
        Returns the number of entries re-replicated.
        """
        chosen = self.latest_complete(comm)
        if chosen is None or comm.size < 2:
            return 0
        epoch, step, _nprocs = chosen
        mine = {
            e["owner"]: e for e in self._held(comm)
            if e["epoch"] == epoch and e["step"] == step
        }
        inventory = comm.allgather(sorted(mine))
        holders: dict[int, list[int]] = {}
        for rank, owners in enumerate(inventory):
            for owner in owners:
                holders.setdefault(owner, []).append(rank)
        plan = []
        for owner in sorted(holders):
            who = holders[owner]
            if len(who) >= 2:
                continue
            src = who[0]
            if owner < comm.size and owner != src:
                dst = owner  # restore the natural layout when possible
            else:
                dst = (src + 1) % comm.size
            plan.append((src, dst, owner))
        for src, dst, owner in plan:
            if comm.rank == src:
                comm.send(mine[owner], dst, tag=_BUDDY_TAG + 1)
            elif comm.rank == dst:
                entry = comm.recv(src, tag=_BUDDY_TAG + 1)
                key = (self.name, entry["epoch"], entry["step"],
                       entry["owner"])
                comm.context.store_put(comm.world_rank, key, entry)
        if plan:
            _record_event(
                "checkpoint.rebalance", self.name, step=int(step),
                epoch=int(epoch), copies=len(plan),
            )
        return len(plan)

    def _held(self, comm) -> list[dict[str, Any]]:
        """This rank's stored entries for this checkpoint name."""
        ctx = comm.context
        return [
            entry for key, entry in ctx.store_items(comm.world_rank)
            if key[0] == self.name
        ]
