"""Pluggable output sinks (reference S5).

The reference exposes a `writer_module` library option — any module
implementing the writer contract can replace the XML writer
(/root/reference/src/osm_supervisor.erl:93-101), and the e2e suite
injects a collecting test double that records written elements
(/root/reference/test/test_osm_writer.erl:9-194). This module is the
Ray-side analog: a `Sink` receives Arrow batches per element kind,
`write_cut_result` streams a CutResult through one, and tests inject
`CollectSink` exactly like `test_osm_writer` does.

Sinks consume *streamed* batches (`iter_batches`) — a sink never holds
the corpus unless it chooses to (CollectSink is test-only by design;
the XML sink buffers rows per the reference's 1,000-element writer
buffer, src/osm_writer.erl:72-88).
"""

from __future__ import annotations

import os
from typing import Protocol, runtime_checkable

import pyarrow as pa
import pyarrow.parquet as pq

KINDS = ("node", "way", "relation")


@runtime_checkable
class Sink(Protocol):
    """Writer contract: batches arrive per kind (nodes first, then
    ways, then relations — the OSM dump order the reference emits);
    `close` finalizes the output and returns per-kind element counts."""

    def write(self, kind: str, batch: pa.Table) -> None: ...

    def close(self) -> dict: ...


class ParquetSink:
    """Partitioned parquet: one directory per kind, one part file per
    batch (atomic temp+rename, so a crashed run leaves only complete
    parts and a re-run can skip them)."""

    def __init__(self, out_dir: str):
        self.out_dir = out_dir
        self.counts = {k: 0 for k in KINDS}
        self._part = {k: 0 for k in KINDS}
        for k in KINDS:
            os.makedirs(os.path.join(out_dir, f"{k}s"), exist_ok=True)

    def write(self, kind: str, batch: pa.Table) -> None:
        d = os.path.join(self.out_dir, f"{kind}s")
        part = os.path.join(d, f"part-{self._part[kind]:05d}.parquet")
        pq.write_table(batch, part + ".tmp")
        os.replace(part + ".tmp", part)
        self._part[kind] += 1
        self.counts[kind] += len(batch)

    def close(self) -> dict:
        return dict(self.counts)


class OsmXmlSink:
    """Streaming OSM XML writer (reference S4 semantics: single output
    file, nodes -> ways -> relations order, `undefined` for missing
    metadata). Batches stream straight through the 1,000-element
    buffered writer as they arrive (osm_writer.erl:30,72-88) — the sink
    holds O(buffer) lines, never the corpus. Kinds must arrive in
    document order (write_cut_result delivers them that way)."""

    def __init__(self, out_path: str, buffer_elements: int = 1000):
        self.out_path = out_path
        self.buffer_elements = buffer_elements
        self._writer = None
        self._kind_idx = 0
        self.counts = {k: 0 for k in KINDS}

    def write(self, kind: str, batch: pa.Table) -> None:
        from .osm_xml import OsmXmlStreamWriter
        if self._writer is None:
            self._writer = OsmXmlStreamWriter(self.out_path,
                                              self.buffer_elements)
        idx = KINDS.index(kind)
        if idx < self._kind_idx:
            raise ValueError(
                f"XML sink requires {'->'.join(KINDS)} order; got {kind} "
                f"after {KINDS[self._kind_idx]}")
        self._kind_idx = idx
        # per-batch row conversion is bounded by the batch size; the
        # writer flushes lines past buffer_elements immediately
        self.counts[kind] += self._writer.write_rows(kind,
                                                     batch.to_pylist())

    def close(self) -> dict:
        from .osm_xml import OsmXmlStreamWriter
        if self._writer is None:  # empty result: still a valid document
            self._writer = OsmXmlStreamWriter(self.out_path,
                                              self.buffer_elements)
        self._writer.close()
        return dict(self.counts)


class CollectSink:
    """In-memory test double (the `test_osm_writer.erl` analog):
    records every written element for assertions."""

    def __init__(self):
        self.tables: dict[str, list[pa.Table]] = {k: [] for k in KINDS}

    def write(self, kind: str, batch: pa.Table) -> None:
        self.tables[kind].append(batch)

    def table(self, kind: str) -> pa.Table:
        parts = self.tables[kind]
        return pa.concat_tables(parts, promote_options="default") \
            if parts else pa.table({})

    def close(self) -> dict:
        return {k: sum(len(t) for t in v) for k, v in self.tables.items()}


SINK_REGISTRY = {"parquet": ParquetSink, "xml": OsmXmlSink}


def _shuffle_relations(result: dict):
    """cut_shuffle emits relation METADATA (`relations_meta`, whose
    `members` column is the original unfiltered list) separately from
    the rebuilt member lists (`relation_members`). A sinkable relation
    stream needs the two joined — streaming relations_meta verbatim
    would emit members referencing dropped elements, breaking the
    broadcast/shuffle result-identity contract."""
    from ..stages import join as J
    meta = result["relations_meta"]
    if result["rel_ids"].count() == 0:  # metadata-only (from_arrow set)
        return meta  # empty by definition; nothing to rebuild/attach
    orig_names = list(meta.schema().base_schema.names)
    rebuilt = J.bucketed_attach_column(
        meta.drop_columns(["members"]), "id",
        result["relation_members"], "rel_id", "members")
    # restore the original column order so all sinks see one schema
    return rebuilt.map_batches(lambda t: t.select(orig_names),
                               batch_format="pyarrow")


def write_cut_result(result, sink: Sink) -> dict:
    """Stream a CutResult (or cut_shuffle dict) through a Sink in the
    reference's element order; returns sink.close()'s counts.

    The broadcast CutResult preserves input document order (filters
    only, executed with Ray Data's ``preserve_order`` so blocks are
    emitted in input order rather than completion order), but the
    shuffle dict's row order is hash-join-dependent — so the dict
    branch restores id order per kind with an output-sized sort. OSM
    dumps are id-sorted within kind, which makes the two strategies'
    sink output byte-identical on standard inputs.
    """
    if isinstance(result, dict):  # cut_shuffle output shape
        trio = (result["nodes"].sort("id"), result["ways"].sort("id"),
                _shuffle_relations(result).sort("id"))
    else:
        trio = (result.nodes, result.ways, result.relations)
        for ds in trio:
            ds.context.execution_options.preserve_order = True
    for kind, ds in zip(KINDS, trio):
        for batch in ds.iter_batches(batch_size=None,
                                     batch_format="pyarrow"):
            if len(batch):
                sink.write(kind, batch)
    return sink.close()
