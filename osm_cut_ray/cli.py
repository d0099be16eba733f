"""CLI — drop-in analog of the reference's `cut.escript`
(/root/reference/cut.escript:4-7: cut.escript <osm> <poly> <out> with
complete_objects on by default).

    python -m osm_cut_ray.cli cut <in.osm[.xml]|dir-of-parquet> \
        <polygon.poly> <out> [--non-complete] [--format xml|parquet]

Owns the Ray session (guarded init; the library never calls ray.init).
The session is sized from the environment:

    RAY_GRAFT_CPUS unset   Ray sizes the session from the host's CPU count
    RAY_GRAFT_CPUS=N       exactly num_cpus=N
"""

from __future__ import annotations

import argparse
import os
import sys
import tempfile


def _init_ray() -> None:
    """Start the local Ray session once per process and silence progress
    bars. `RAY_GRAFT_CPUS=N` sets `num_cpus=N`; unset, Ray sizes the
    session from the host's CPU count."""
    import ray
    if not ray.is_initialized():
        cpus = os.environ.get("RAY_GRAFT_CPUS")
        ray.init(address="local", num_cpus=int(cpus) if cpus else None,
                 include_dashboard=False, logging_level="ERROR")
    from ray.data import DataContext
    DataContext.get_current().enable_progress_bars = False


def _cmd_cut(args) -> int:
    import ray
    _init_ray()

    import ray.data as rd
    from .geometry.polygon import PolygonIndex, load_polygon_rings
    from .pipelines.cut import cut, cut_auto
    from .sources.osm_xml import load_osm_xml

    is_rel = args.polygon.startswith("rel:")
    if is_rel:
        poly = None
    elif args.polygon.startswith("bbox:"):
        # osmium extract -b LEFT,BOTTOM,RIGHT,TOP analog
        x0, y0, x1, y1 = (float(v) for v in
                          args.polygon[5:].split(","))
        if not (x1 > x0 and y1 > y0):
            raise SystemExit("bbox: needs minlon,minlat,maxlon,maxlat"
                             " with max > min")
        poly = PolygonIndex.compile([("include", [
            (x0, y0), (x1, y0), (x1, y1), (x0, y1), (x0, y0)])])
    else:
        poly = PolygonIndex.compile(load_polygon_rings(args.polygon))

    pip_nodes = None
    if os.path.isdir(args.input):  # parquet layout: nodes/ ways/ relations/
        nodes = rd.read_parquet(os.path.join(args.input, "nodes"))
        ways = rd.read_parquet(os.path.join(args.input, "ways"))
        rels = rd.read_parquet(os.path.join(args.input, "relations"))
        work = None
    elif args.input.endswith(".pbf"):
        from .sources.osm_pbf import load_osm_pbf
        work = tempfile.mkdtemp(prefix="osmcut_", dir="/tmp")
        nodes, ways, rels = load_osm_pbf(args.input, work)
    else:
        work = tempfile.mkdtemp(prefix="osmcut_", dir="/tmp")
        nodes, ways, rels = load_osm_xml(args.input, work)

    if is_rel:
        # boundary-relation cut (osmium extract -p <relation> analog):
        # assemble the multipolygon from the corpus itself
        from .stages.multipolygon import boundary_rings
        poly = PolygonIndex.compile(
            boundary_rings(nodes, ways, rels,
                           int(args.polygon[4:])))
    if os.path.isdir(args.input):
        from .stages.pip import read_points_pruned
        # bbox-pruned PIP scan (row-group stats pushdown); `nodes`
        # stays unpruned for the back-join/payload phases
        pip_nodes = read_points_pruned(
            os.path.join(args.input, "nodes"), poly,
            columns=["id", "lon", "lat"])

    if args.way_tag:
        # osmium --tag-filter analog: select ways by tag BEFORE the
        # membership joins (map-side, stages/tag_filter.py)
        from .stages.tag_filter import filter_by_tag
        key, _, vals = args.way_tag.partition("=")
        ways = filter_by_tag(ways, key,
                             vals.split(",") if vals else None)

    if args.strategy == "broadcast":
        res = cut(nodes, ways, rels, poly,
                  complete=not args.non_complete, pip_nodes=pip_nodes)
    elif args.strategy == "shuffle":
        from .pipelines.cut_shuffle import cut_shuffle
        res = cut_shuffle(nodes, ways, rels, poly,
                          complete=not args.non_complete)
    else:
        strategy, res = cut_auto(nodes, ways, rels, poly,
                                 complete=not args.non_complete,
                                 pip_nodes=pip_nodes)
        print(f"strategy: {strategy}", file=sys.stderr)

    # pluggable writer (reference S5 writer_module analog): --format
    # picks from the registry; library callers can pass any Sink to
    # write_cut_result (tests inject CollectSink)
    from .sources.sink import SINK_REGISTRY, write_cut_result
    sink = SINK_REGISTRY[args.format](args.output)
    counts = write_cut_result(res, sink)
    print(f"wrote {args.format} to {args.output} "
          f"(nodes={counts['node']}, ways={counts['way']}, "
          f"relations={counts['relation']})")
    ray.shutdown()
    return 0


def _cmd_flagship(args) -> int:
    import ray
    _init_ray()
    from .pipelines.flagship import flagship_resumable
    report = flagship_resumable(args.sf_dir, args.output)
    print(f"completed={report['completed']} skipped={report['skipped']} "
          f"rows_out={report['rows_out']} wall={report['wall_sec']}s")
    ray.shutdown()
    return 0


def _cmd_curate(args) -> int:
    import glob

    import ray
    _init_ray()
    from .pipelines.curate import curate_documents
    paths = sorted(p for pat in args.inputs for p in glob.glob(pat))
    if not paths:
        print(f"no inputs matched {args.inputs}", file=sys.stderr)
        return 2
    bench_texts = []
    if args.benchmark:
        with open(args.benchmark, encoding="utf-8") as f:
            bench_texts = [ln.rstrip("\n") for ln in f if ln.strip()]
    model = None
    if args.quality_model:
        import numpy as np
        model = np.load(args.quality_model)
    lm = None
    if args.lm_max_xent is not None:
        # self-fit: train the bigram LM on the input corpus itself and
        # drop its own high-perplexity tail (the CCNet bootstrap)
        import ray.data as rd

        from .sources.tables import strip_schema_metadata
        from .stages.lm_score import fit_bigram_lm
        docs = strip_schema_metadata(
            rd.read_parquet(paths, columns=["doc_id", "text"]))
        lm = fit_bigram_lm(docs, dim=1 << 18)
    report = curate_documents(
        paths, args.output, bench_texts=bench_texts,
        max_overlap=args.max_overlap,
        jaccard_threshold=args.jaccard_threshold,
        langs=tuple(args.langs.split(",")),
        max_dup_line_frac=args.max_dup_line_frac,
        max_top_bigram_frac=args.max_top_bigram_frac,
        min_tokens=args.min_tokens,
        redact_pii=args.redact_pii,
        quality_model=model,
        min_model_score=args.min_model_score,
        drop_boilerplate=args.drop_boilerplate,
        boilerplate_min_df=args.boilerplate_min_df,
        lm_model=lm,
        lm_max_xent=args.lm_max_xent
        if args.lm_max_xent is not None else float("inf"))
    print(f"completed={report['completed']} skipped={report['skipped']} "
          f"rows_out={report['rows_out']} "
          f"drops: exact={report['n_drop_exact_dup']} "
          f"near={report['n_drop_near_dup']} "
          f"contaminated={report['n_drop_contaminated']} "
          f"model={report['n_drop_model']} "
          f"lm={report['n_drop_lm']} "
          f"hot_lines={report['n_hot_lines']} "
          f"wall={report['wall_sec']}s")
    ray.shutdown()
    return 0


def _cmd_curate_images(args) -> int:
    import glob

    import ray
    _init_ray()
    from .pipelines.curate_images import curate_images
    paths = sorted(p for pat in args.inputs for p in glob.glob(pat))
    if not paths:
        print(f"no inputs matched {args.inputs}", file=sys.stderr)
        return 2
    poly = None
    if args.polygon:
        from .geometry.polygon import PolygonIndex, load_polygon_rings
        poly = PolygonIndex.compile(load_polygon_rings(args.polygon))
    report = curate_images(
        paths, args.output, polygon=poly,
        hamming_threshold=args.hamming_threshold,
        langs=tuple(args.langs.split(",")),
        min_caption_tokens=args.min_caption_tokens,
        min_entropy=args.min_entropy,
        min_contrast=args.min_contrast,
        max_extreme_frac=args.max_extreme_frac,
        min_clip_score=args.min_clip_score,
        resize_target=args.resize_target)
    print(f"completed={report['completed']} skipped={report['skipped']} "
          f"rows_out={report['rows_out']} "
          f"drops: exact={report['n_drop_exact_dup']} "
          f"near={report['n_drop_near_dup']} "
          f"wall={report['wall_sec']}s")
    ray.shutdown()
    return 0


def _cmd_export_wds(args) -> int:
    import glob

    import ray
    _init_ray()
    import ray.data as rd

    from .sources.tables import strip_schema_metadata
    from .sources.webdataset import write_wds_shards
    paths = sorted(p for pat in args.inputs for p in glob.glob(pat))
    if not paths:
        print(f"no inputs matched {args.inputs}", file=sys.stderr)
        return 2
    ds = strip_schema_metadata(rd.read_parquet(paths))
    if args.pack_batch_size:
        from .sources.webdataset import export_packed_wds
        man = export_packed_wds(
            ds, args.output, batch_size=args.pack_batch_size,
            batches_per_shard=args.batches_per_shard)
    else:
        man = write_wds_shards(ds, args.output,
                               rows_per_shard=args.rows_per_shard,
                               shuffle_seed=args.shuffle_seed)
    print(f"wrote {len(man)} shard(s), "
          f"rows={sum(man['rows'].to_pylist())}, "
          f"bytes={sum(man['bytes'].to_pylist())} to {args.output}")
    ray.shutdown()
    return 0


def _cmd_apply_change(args) -> int:
    """osmium apply-changes analog: base corpus + .osc -> updated
    OSM XML (elements sorted by id per kind, deterministic)."""
    _init_ray()

    import ray.data as rd

    from .sources.osm_change import apply_osc
    from .sources.osm_xml import load_osm_xml, write_osm_xml

    if os.path.isdir(args.input):
        nodes = rd.read_parquet(os.path.join(args.input, "nodes"))
        ways = rd.read_parquet(os.path.join(args.input, "ways"))
        rels = rd.read_parquet(os.path.join(args.input, "relations"))
    else:
        work = tempfile.mkdtemp(prefix="osmchg_", dir="/tmp")
        nodes, ways, rels = load_osm_xml(args.input, work)
    nodes, ways, rels = apply_osc(nodes, ways, rels, args.change)

    def rows(ds):
        return ds.sort("id").iter_rows()

    total = write_osm_xml(args.output, rows(nodes), rows(ways),
                          rows(rels))
    print(f"wrote xml to {args.output} ({total} elements)")
    return 0


def _load_corpus(path: str):
    """XML file / .pbf file / parquet dir -> (nodes, ways, rels)."""
    import ray.data as rd
    if os.path.isdir(path):
        return (rd.read_parquet(os.path.join(path, "nodes")),
                rd.read_parquet(os.path.join(path, "ways")),
                rd.read_parquet(os.path.join(path, "relations")))
    if path.endswith(".pbf"):
        from .sources.osm_pbf import load_osm_pbf
        return load_osm_pbf(path,
                            tempfile.mkdtemp(prefix="osmld_",
                                             dir="/tmp"))
    from .sources.osm_xml import load_osm_xml
    return load_osm_xml(path, tempfile.mkdtemp(prefix="osmld_",
                                               dir="/tmp"))


def _cmd_osm_tool(args) -> int:
    """merge / getid / renumber: corpus-maintenance verbs sharing the
    sorted-XML output path."""
    _init_ray()

    from .sources.osm_xml import write_osm_xml

    if args.cmd == "merge":
        from .stages.osm_tools import merge_corpora
        corpora = [_load_corpus(p) for p in args.inputs]
        nodes = merge_corpora([c[0] for c in corpora])
        ways = merge_corpora([c[1] for c in corpora])
        rels = merge_corpora([c[2] for c in corpora])
    elif args.cmd == "getid":
        from .stages.osm_tools import extract_by_ids
        seeds = {"n": [], "w": [], "r": []}
        for tok in args.ids:
            if len(tok) < 2 or tok[0] not in seeds \
                    or not tok[1:].lstrip("-").isdigit():
                raise SystemExit(
                    f"getid: bad id {tok!r} — expected n<id>, w<id> "
                    "or r<id> (e.g. n123 w45 r6)")
            seeds[tok[0]].append(int(tok[1:]))
        nodes, ways, rels = extract_by_ids(
            *_load_corpus(args.input), node_ids=seeds["n"],
            way_ids=seeds["w"], rel_ids=seeds["r"])
    else:  # renumber
        from .stages.osm_tools import renumber_corpus
        nodes, ways, rels = renumber_corpus(*_load_corpus(args.input))

    def rows(ds):
        return ds.sort("id").iter_rows()

    total = write_osm_xml(args.output, rows(nodes), rows(ways),
                          rows(rels))
    print(f"wrote xml to {args.output} ({total} elements)")
    return 0


def _cmd_cut_update(args) -> int:
    """Incremental extract maintenance: corpus + .osc -> updated cut
    output, reusing the persisted CutState when present (first run
    builds it)."""
    _init_ray()

    from .geometry.polygon import PolygonIndex, load_polygon_rings
    from .pipelines.cut_incremental import (apply_osc_to_cut,
                                            build_cut_state,
                                            has_state, load_state,
                                            save_state)
    from .sources.osm_change import apply_osc, parse_osc_xml
    from .sources.sink import SINK_REGISTRY, write_cut_result

    if args.polygon.startswith("bbox:"):
        x0, y0, x1, y1 = (float(v) for v in
                          args.polygon[5:].split(","))
        poly = PolygonIndex.compile([("include", [
            (x0, y0), (x1, y0), (x1, y1), (x0, y1), (x0, y0)])])
    else:
        poly = PolygonIndex.compile(load_polygon_rings(args.polygon))

    nodes, ways, rels = _load_corpus(args.input)
    change = parse_osc_xml(args.change)
    new_nodes, new_ways, new_rels = apply_osc(
        nodes, ways, rels, args.change)
    # id order matches apply-change's sorted-XML contract, so the
    # emitted extract is byte-identical to a full re-cut of it
    new_nodes = new_nodes.sort("id").materialize()
    new_ways = new_ways.sort("id").materialize()
    new_rels = new_rels.sort("id").materialize()

    if has_state(args.state_dir):
        state = load_state(args.state_dir)
        state, delta, res = apply_osc_to_cut(
            new_nodes, new_ways, new_rels, ways, change, poly,
            state)
        print(f"incremental: +{len(delta['nodes_added'])} "
              f"-{len(delta['nodes_removed'])} nodes, "
              f"+{len(delta['ways_added'])} "
              f"-{len(delta['ways_removed'])} ways",
              file=sys.stderr)
    else:
        state, res = build_cut_state(new_nodes, new_ways, new_rels,
                                     poly)
        print("no prior state: full build", file=sys.stderr)
    save_state(state, args.state_dir)

    sink = SINK_REGISTRY[args.format](args.output)
    counts = write_cut_result(res, sink)
    print(f"wrote {args.format} to {args.output} "
          f"(nodes={counts['node']}, ways={counts['way']}, "
          f"relations={counts['relation']})")
    return 0


def _cmd_fileinfo(args) -> int:
    """osmium fileinfo --extended analog over any corpus input."""
    _init_ray()

    from .stages.fileinfo import corpus_info, format_info
    nodes, ways, rels = _load_corpus(args.input)
    info = corpus_info(nodes, ways, rels)
    print(f"File: {args.input}")
    print(format_info(info))
    return 0


def _cmd_check_refs(args) -> int:
    """osmium check-refs analog: referential completeness audit."""
    _init_ray()

    from .stages.osm_tools import check_refs
    nodes, ways, rels = _load_corpus(args.input)
    rep = check_refs(nodes, ways, rels,
                     check_relations=not args.no_relations)
    print(f"missing way node refs: {rep['missing_way_node_refs']} "
          f"(in {rep['ways_affected']} way(s))")
    for kind, n in rep["missing_member_refs"].items():
        print(f"missing relation {kind} members: {n}")
    for k, v in rep["samples"].items():
        if v:
            print(f"  sample {k}: {v}")
    print("complete" if rep["complete"] else "INCOMPLETE")
    return 0 if rep["complete"] else 1


def _cmd_compact(args) -> int:
    """Small-file parquet compaction (optionally key-sorted)."""
    _init_ray()

    from .sources.tables import compact_table
    cols = args.columns.split(",") if args.columns else None
    res = compact_table(args.input, args.output,
                        target_rows_per_file=args.target_rows,
                        sort_by=args.sort_by, columns=cols)
    print(f"compacted {res['rows']} rows into {res['files']} "
          f"file(s) at {res['out_dir']}")
    return 0


def _cmd_convert(args) -> int:
    """Streaming table format conversion."""
    _init_ray()

    from .sources.tables import convert_table
    cols = args.columns.split(",") if args.columns else None
    convert_table(args.input, args.output, to=args.to, columns=cols)
    print(f"wrote {args.to} to {args.output}")
    return 0


def _cmd_tag_stats(args) -> int:
    """taginfo-style tag frequency readout for one element kind."""
    _init_ray()

    from .stages.tag_stats import tag_stats
    corpus = _load_corpus(args.input)
    ds = {"nodes": corpus[0], "ways": corpus[1],
          "relations": corpus[2]}[args.kind]
    tab = tag_stats(ds, top_k=args.top_k,
                    by_value=not args.keys_only)
    for r in tab.to_pylist():
        if args.keys_only:
            print(f"{r['n']:>12}  {r['key']}")
        else:
            print(f"{r['n']:>12}  {r['key']}={r['value']}")
    return 0


def _cmd_export_geojson(args) -> int:
    """osmium export analog: corpus -> GeoJSON FeatureCollection."""
    _init_ray()

    from .sources.geojson_export import write_geojson
    from .stages.locate import add_locations_to_ways

    nodes, ways, _rels = _load_corpus(args.input)
    located = add_locations_to_ways(
        nodes, ways, ignore_missing=args.ignore_missing_nodes)
    n = write_geojson(args.output, nodes, located,
                      tagged_nodes_only=not args.all_nodes)
    print(f"wrote geojson to {args.output} ({n} features)")
    return 0


def _cmd_derive_change(args) -> int:
    """osmium derive-changes analog: old + new corpus -> .osc."""
    _init_ray()

    from .sources.osm_change import derive_osc
    counts = derive_osc(_load_corpus(args.old), _load_corpus(args.new),
                        args.output)
    print(f"wrote osc to {args.output} (create={counts['create']}, "
          f"modify={counts['modify']}, delete={counts['delete']})")
    return 0


def _cmd_diff(args) -> int:
    """osmium derive-changes analog over two parquet snapshots."""
    import glob

    import ray
    _init_ray()
    import ray.data as rd

    from .sources.tables import strip_schema_metadata
    from .stages.diff import diff_corpora

    def load(pats):
        paths = sorted(p for pat in pats for p in glob.glob(pat))
        if not paths:
            print(f"no inputs matched {pats}", file=sys.stderr)
            return None
        return strip_schema_metadata(rd.read_parquet(paths))

    old = load([args.old])
    new = load([args.new])
    if old is None or new is None:
        return 2
    out = diff_corpora(old, new, id_col=args.id_col,
                       keep_unchanged=args.keep_unchanged)
    if args.output:
        out.write_parquet(args.output)
        print(f"diff written to {args.output}")
    from collections import Counter
    counts = Counter(r["change"] for r in
                     out.select_columns(["change"]).take_all())
    for k in ("added", "removed", "modified", "unchanged"):
        if counts.get(k):
            print(f"{k}: {counts[k]}")
    ray.shutdown()
    return 0


def _cmd_layout(args) -> int:
    import glob

    import ray
    _init_ray()
    import ray.data as rd

    from .sources.tables import strip_schema_metadata
    from .stages.spatial_layout import write_spatial_layout
    paths = sorted(p for pat in args.inputs for p in glob.glob(pat))
    if not paths:
        print(f"no inputs matched {args.inputs}", file=sys.stderr)
        return 2
    ds = strip_schema_metadata(rd.read_parquet(paths))
    write_spatial_layout(ds, args.output, curve=args.curve,
                         bits=args.bits, lon_col=args.lon_col,
                         lat_col=args.lat_col,
                         rows_per_group=args.rows_per_group)
    print(f"clustered layout written to {args.output} "
          f"(curve={args.curve}, bits={args.bits})")
    ray.shutdown()
    return 0


def _cmd_clip(args) -> int:
    _init_ray()

    import ray.data as rd
    from .geometry.polygon import load_polygon_rings
    from .stages.clip import clip_ways

    rings = load_polygon_rings(args.polygon)
    if os.path.isdir(args.input):
        nodes = rd.read_parquet(os.path.join(args.input, "nodes"),
                                columns=["id", "lon", "lat"])
        ways = rd.read_parquet(os.path.join(args.input, "ways"))
    else:
        work = tempfile.mkdtemp(prefix="osmclip_", dir="/tmp")
        from .sources.osm_xml import load_osm_xml
        nodes, ways, _rels = load_osm_xml(args.input, work)
    pieces = clip_ways(ways, nodes, rings, refs_col="node_ids")
    os.makedirs(args.output, exist_ok=True)
    pieces = pieces.materialize()
    pieces.write_parquet(args.output)
    print(f"clipped pieces written to {args.output} "
          f"(pieces={pieces.count()})")
    return 0


def _cmd_cut_multi(args) -> int:
    _init_ray()

    import ray.data as rd
    from .geometry.polygon import PolygonIndex, load_polygon_rings
    from .pipelines.cut_multi import cut_multi
    from .sources.sink import SINK_REGISTRY, write_cut_result

    if args.config:
        # osmium extract -c config.json analog: extracts[] with
        # output + bbox (array or left/bottom/right/top object) or
        # polygon (file_name in any supported format, or inline
        # GeoJSON-Polygon coordinates)
        import json
        with open(args.config, encoding="utf-8") as f:
            cfg = json.load(f)
        base = os.path.dirname(os.path.abspath(args.config))
        names, rings_list = [], []
        for ext in cfg["extracts"]:
            names.append(ext["output"])
            if "bbox" in ext:
                bb = ext["bbox"]
                if isinstance(bb, dict):
                    x0, y0 = bb["left"], bb["bottom"]
                    x1, y1 = bb["right"], bb["top"]
                else:
                    x0, y0, x1, y1 = bb
                rings_list.append([("include", [
                    (x0, y0), (x1, y0), (x1, y1), (x0, y1),
                    (x0, y0)])])
            elif "polygon" in ext:
                pg = ext["polygon"]
                if isinstance(pg, dict) and "file_name" in pg:
                    fp = pg["file_name"]
                    if not os.path.isabs(fp):
                        fp = os.path.join(base, fp)
                    rings_list.append(load_polygon_rings(fp))
                else:  # inline GeoJSON Polygon coordinates
                    rings_list.append([
                        ("include" if k == 0 else "exclude",
                         [(float(p[0]), float(p[1])) for p in ring])
                        for k, ring in enumerate(pg)])
            else:
                raise SystemExit(
                    f"extract {ext['output']!r} needs bbox or polygon")
        polys = [PolygonIndex.compile(r) for r in rings_list]
        out_names = [os.path.splitext(n)[0] for n in names]
    else:
        if not args.polygons:
            raise SystemExit("pass --polygon ... or --config")
        polys = [PolygonIndex.compile(load_polygon_rings(p))
                 for p in args.polygons]
        out_names = [os.path.splitext(os.path.basename(p))[0]
                     for p in args.polygons]
    if os.path.isdir(args.input):
        nodes = rd.read_parquet(os.path.join(args.input, "nodes"))
        ways = rd.read_parquet(os.path.join(args.input, "ways"))
        rels = rd.read_parquet(os.path.join(args.input, "relations"))
    else:
        work = tempfile.mkdtemp(prefix="osmmulti_", dir="/tmp")
        from .sources.osm_xml import load_osm_xml
        nodes, ways, rels = load_osm_xml(args.input, work)
    results = cut_multi(nodes, ways, rels, polys,
                        complete=not args.non_complete)
    os.makedirs(args.output, exist_ok=True)
    for i, res in enumerate(results):
        name = out_names[i]
        out = os.path.join(args.output,
                           f"{name}.osm" if args.format == "xml"
                           else name)
        counts = write_cut_result(res, SINK_REGISTRY[args.format](out))
        print(f"region {name}: nodes={counts['node']}, "
              f"ways={counts['way']}, relations={counts['relation']}")
    return 0


def _cmd_report(args) -> int:
    import glob
    import json

    _init_ray()

    import ray.data as rd
    from .pipelines.report import corpus_report
    from .sources.tables import strip_schema_metadata

    paths = sorted(p for pat in args.inputs for p in glob.glob(pat))
    if not paths:
        print(f"no inputs matched {args.inputs}", file=sys.stderr)
        return 2
    docs = strip_schema_metadata(
        rd.read_parquet(paths, columns=["doc_id", "text"]))
    print(json.dumps(corpus_report(docs)))
    return 0


def _cmd_pack_seqs(args) -> int:
    import glob

    _init_ray()

    import ray.data as rd
    from .sources.tables import strip_schema_metadata
    from .stages.seq_pack import (materialize_packed_sequences,
                                  pack_token_sequences)

    paths = sorted(p for pat in args.inputs for p in glob.glob(pat))
    if not paths:
        print(f"no inputs matched {args.inputs}", file=sys.stderr)
        return 2
    docs = strip_schema_metadata(
        rd.read_parquet(paths, columns=["doc_id", "text"])).materialize()
    spans = pack_token_sequences(docs, seq_len=args.seq_len).materialize()
    os.makedirs(args.output, exist_ok=True)
    if args.spans_only:
        out = spans
    else:
        out = materialize_packed_sequences(
            docs, spans, seq_len=args.seq_len).materialize()
    out.write_parquet(args.output)
    print(f"packed output written to {args.output} "
          f"(rows={out.count()}, seq_len={args.seq_len})")
    return 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(prog="osm_cut_ray")
    sub = p.add_subparsers(dest="cmd", required=True)
    c = sub.add_parser("cut", help="polygon-cut an OSM corpus")
    c.add_argument("input", help="OSM XML file, .osm.pbf file, or parquet directory")
    c.add_argument("polygon",
                   help="Osmosis .poly file, GeoJSON file, "
                        "bbox:minlon,minlat,maxlon,maxlat, or "
                        "rel:<id> (assemble the boundary from a "
                        "multipolygon relation in the corpus)")
    c.add_argument("output", help="output .osm path (xml) or directory")
    c.add_argument("--non-complete", action="store_true",
                   help="drop referenced-but-outside objects "
                        "(reference default keeps them: complete_objects)")
    c.add_argument("--format", choices=["xml", "parquet"], default="xml")
    c.add_argument("--strategy", choices=["auto", "broadcast", "shuffle"],
                   default="auto",
                   help="membership-join strategy; auto sizes the "
                        "inputs and broadcasts only when the id sets "
                        "fit (cut_auto)")
    c.add_argument("--way-tag", default=None,
                   help="keep only ways with this tag before the cut: "
                        "'key' (presence) or 'key=v1,v2' (values)")
    c.set_defaults(fn=_cmd_cut)
    cl = sub.add_parser("clip", help="clip way geometries at the "
                                     "polygon boundary (pieces parquet)")
    cl.add_argument("input", help="OSM XML file or parquet directory")
    cl.add_argument("polygon", help="Osmosis .poly file")
    cl.add_argument("output", help="output parquet directory")
    cl.set_defaults(fn=_cmd_clip)
    cm = sub.add_parser("cut-multi", help="extract K polygon regions "
                                          "in ONE shared corpus scan")
    cm.add_argument("input", help="OSM XML file or parquet directory")
    cm.add_argument("output", help="output directory (one file/dir "
                                   "per region, named after its .poly)")
    cm.add_argument("--polygon", dest="polygons", action="append",
                    default=None,
                    help="boundary file: .poly or GeoJSON (repeat)")
    cm.add_argument("--config", default=None,
                    help="osmium-style extract config JSON "
                         "(extracts[] with output + bbox/polygon)")
    cm.add_argument("--non-complete", action="store_true")
    cm.add_argument("--format", choices=["xml", "parquet"],
                    default="xml")
    cm.set_defaults(fn=_cmd_cut_multi)
    rp = sub.add_parser("report", help="one-pass corpus datasheet "
                                       "(counts, dup rate, quantiles) "
                                       "as one JSON line")
    rp.add_argument("inputs", nargs="+",
                    help="input parquet paths/globs with (doc_id, text)")
    rp.set_defaults(fn=_cmd_report)
    ps = sub.add_parser("pack-seqs", help="pack documents into "
                                          "fixed-length LM training "
                                          "sequences (parquet)")
    ps.add_argument("inputs", nargs="+",
                    help="input parquet paths/globs with (doc_id, text)")
    ps.add_argument("output", help="output parquet directory")
    ps.add_argument("--seq-len", type=int, default=2048)
    ps.add_argument("--spans-only", action="store_true",
                    help="write the span assignment table instead of "
                         "materialized token sequences")
    ps.set_defaults(fn=_cmd_pack_seqs)
    f = sub.add_parser("flagship",
                       help="checkpointed flagship image-cut run "
                            "(the `ray job submit` entry point)")
    f.add_argument("sf_dir", help="input table directory")
    f.add_argument("output", help="checkpoint output directory")
    f.set_defaults(fn=_cmd_flagship)
    cu = sub.add_parser("curate",
                        help="resumable corpus curation: dedup + "
                             "decontaminate + quality gate -> parquet")
    cu.add_argument("inputs", nargs="+",
                    help="input parquet paths/globs with (doc_id, text)")
    cu.add_argument("output", help="curated output directory")
    cu.add_argument("--benchmark", default=None,
                    help="text file, one benchmark document per line")
    cu.add_argument("--max-overlap", type=float, default=0.1)
    cu.add_argument("--jaccard-threshold", type=float, default=0.8)
    cu.add_argument("--langs", default="en",
                    help="comma-separated language allow-list")
    cu.add_argument("--max-dup-line-frac", type=float, default=0.5)
    cu.add_argument("--max-top-bigram-frac", type=float, default=0.5)
    cu.add_argument("--min-tokens", type=int, default=3)
    cu.add_argument("--redact-pii", action="store_true",
                    help="replace emails/phones/IPs/SSNs/card numbers "
                         "with [CATEGORY] tokens in the kept text")
    cu.add_argument("--quality-model", default=None,
                    help=".npy float64 weight vector from "
                         "stages.classify.fit_linear_classifier; "
                         "drops docs scoring below --min-model-score")
    cu.add_argument("--min-model-score", type=float, default=0.5)
    cu.add_argument("--drop-boilerplate", action="store_true",
                    help="strip lines repeated across >= "
                         "--boilerplate-min-df documents (C4-style)")
    cu.add_argument("--boilerplate-min-df", type=int, default=4)
    cu.add_argument("--lm-max-xent", type=float, default=None,
                    help="fit a bigram LM on the input corpus and drop "
                         "docs with cross-entropy above this threshold "
                         "(nats/bigram)")
    cu.set_defaults(fn=_cmd_curate)
    ci = sub.add_parser(
        "curate-images",
        help="resumable image-corpus curation: spatial gate + dedup + "
             "quality/caption/clip gates + thumbnail -> parquet")
    ci.add_argument("inputs", nargs="+",
                    help="input parquet paths/globs with the image "
                         "table columns (image_id, bytes, w, h, fmt, "
                         "caption, phash)")
    ci.add_argument("output", help="curated output directory")
    ci.add_argument("--polygon", default=None,
                    help="Osmosis .poly file; keep only images whose "
                         "phash geotag falls inside")
    ci.add_argument("--hamming-threshold", type=int, default=3)
    ci.add_argument("--langs", default="en",
                    help="comma-separated caption-language allow-list")
    ci.add_argument("--min-caption-tokens", type=int, default=2)
    ci.add_argument("--min-entropy", type=float, default=0.5)
    ci.add_argument("--min-contrast", type=float, default=0.01)
    ci.add_argument("--max-extreme-frac", type=float, default=0.9)
    ci.add_argument("--min-clip-score", type=float, default=None,
                    help="drop rows whose caption<->image agreement "
                         "score is below this (stub encoders here; "
                         "a real CLIP on a GPU cluster)")
    ci.add_argument("--resize-target", type=int, default=None,
                    help="thumbnail kept images to this max side")
    ci.set_defaults(fn=_cmd_curate_images)
    ew = sub.add_parser(
        "export-wds",
        help="export an image-table parquet corpus (e.g. curate-images "
             "output) as WebDataset tar shards")
    ew.add_argument("inputs", nargs="+",
                    help="input parquet paths/globs (image table schema)")
    ew.add_argument("output", help="shard output directory")
    ew.add_argument("--rows-per-shard", type=int, default=10_000)
    ew.add_argument("--shuffle-seed", type=int, default=None,
                    help="seeded global shuffle before sharding")
    ew.add_argument("--pack-batch-size", type=int, default=None,
                    help="emit ASPECT-PACKED shards instead: every "
                         "run of this many samples shares an "
                         "aspect-ratio bucket (stages/batching.py)")
    ew.add_argument("--batches-per-shard", type=int, default=64)
    ew.set_defaults(fn=_cmd_export_wds)
    ly = sub.add_parser(
        "layout",
        help="one-time space-filling-curve clustering of a point "
             "corpus so bbox/polygon reads prune row groups")
    ly.add_argument("inputs", nargs="+",
                    help="input parquet paths/globs with lon/lat")
    ly.add_argument("output", help="clustered parquet directory")
    ly.add_argument("--curve", choices=["hilbert", "morton"],
                    default="hilbert")
    ly.add_argument("--bits", type=int, default=16)
    ly.add_argument("--lon-col", default="lon")
    ly.add_argument("--lat-col", default="lat")
    ly.add_argument("--rows-per-group", type=int, default=4096)
    ly.set_defaults(fn=_cmd_layout)
    mg = sub.add_parser("merge", help="merge K corpora, highest "
                                      "(version, input order) wins "
                                      "(osmium merge analog)")
    mg.add_argument("inputs", nargs="+",
                    help="OSM XML/.pbf files or parquet dirs")
    mg.add_argument("output", help="output OSM XML path")
    mg.set_defaults(fn=_cmd_osm_tool)
    gi = sub.add_parser("getid", help="extract objects by id with "
                                      "recursive reference completion "
                                      "(osmium getid -r analog)")
    gi.add_argument("input", help="OSM XML/.pbf file or parquet dir")
    gi.add_argument("output", help="output OSM XML path")
    gi.add_argument("ids", nargs="+",
                    help="seed ids: n<id> w<id> r<id>")
    gi.set_defaults(fn=_cmd_osm_tool)
    rn = sub.add_parser("renumber", help="remap ids to dense 1..N "
                                         "per kind (osmium renumber "
                                         "analog)")
    rn.add_argument("input", help="OSM XML/.pbf file or parquet dir")
    rn.add_argument("output", help="output OSM XML path")
    rn.set_defaults(fn=_cmd_osm_tool)
    ts_ = sub.add_parser("tag-stats", help="taginfo-style tag "
                                           "frequency readout")
    ts_.add_argument("input", help="OSM XML/.pbf file or parquet dir")
    ts_.add_argument("--kind", choices=["nodes", "ways", "relations"],
                     default="ways")
    ts_.add_argument("--top-k", type=int, default=30)
    ts_.add_argument("--keys-only", action="store_true")
    ts_.set_defaults(fn=_cmd_tag_stats)
    eg = sub.add_parser(
        "export-geojson",
        help="export a corpus as GeoJSON (tagged-node Points + way "
             "LineStrings; osmium export analog)")
    eg.add_argument("input", help="OSM XML, .pbf or parquet dir")
    eg.add_argument("output", help="output .geojson path")
    eg.add_argument("--all-nodes", action="store_true",
                    help="emit untagged nodes too")
    eg.add_argument("--ignore-missing-nodes", action="store_true")
    eg.set_defaults(fn=_cmd_export_geojson)
    dc = sub.add_parser(
        "derive-change",
        help="diff two corpus versions into an OsmChange (.osc) "
             "file (osmium derive-changes analog)")
    dc.add_argument("old", help="old corpus: OSM XML, .pbf or "
                                "parquet dir")
    dc.add_argument("new", help="new corpus: OSM XML, .pbf or "
                                "parquet dir")
    dc.add_argument("output", help="output .osc path")
    dc.set_defaults(fn=_cmd_derive_change)
    ac = sub.add_parser(
        "apply-change",
        help="apply an OsmChange (.osc) diff to a corpus "
             "(osmium apply-changes analog)")
    ac.add_argument("input", help="base OSM XML file or parquet dir")
    ac.add_argument("change", help=".osc change file")
    ac.add_argument("output", help="output OSM XML path")
    ac.set_defaults(fn=_cmd_apply_change)
    dm = sub.add_parser(
        "diff",
        help="classify added/removed/modified rows between two "
             "parquet snapshots (osmium derive-changes analog)")
    dm.add_argument("old", help="old snapshot parquet path/glob")
    dm.add_argument("new", help="new snapshot parquet path/glob")
    dm.add_argument("--id-col", default="id")
    dm.add_argument("--output", default=None,
                    help="write (id, change) parquet here")
    dm.add_argument("--keep-unchanged", action="store_true")
    dm.set_defaults(fn=_cmd_diff)
    cs = sub.add_parser(
        "cut-update",
        help="incremental extract maintenance: corpus + .osc diff "
             "-> updated cut, reusing persisted state (complete "
             "mode)")
    cs.add_argument("input", help="PRE-diff corpus (xml/.pbf/"
                                  "parquet dir)")
    cs.add_argument("change", help=".osc change file")
    cs.add_argument("polygon", help=".poly/.geojson file or "
                                    "bbox:l,b,r,t")
    cs.add_argument("output")
    cs.add_argument("--state-dir", required=True,
                    help="CutState directory (created on first run)")
    cs.add_argument("--format", default="xml",
                    choices=["xml", "parquet"])
    cs.set_defaults(fn=_cmd_cut_update)
    fi = sub.add_parser(
        "fileinfo",
        help="corpus statistics (osmium fileinfo --extended analog): "
             "counts, id ranges, bbox, timestamps, tag volume, "
             "distinct-user estimate")
    fi.add_argument("input", help="OSM XML / .pbf file or parquet "
                                  "corpus dir")
    fi.set_defaults(fn=_cmd_fileinfo)
    cv = sub.add_parser(
        "convert",
        help="convert a columnar table between parquet/jsonl/csv "
             "(streaming, optional column pruning)")
    cv.add_argument("input", help="table path (parquet dir/file, "
                                  ".jsonl, .csv)")
    cv.add_argument("output", help="output directory")
    cv.add_argument("--to", required=True,
                    choices=["parquet", "jsonl", "csv"])
    cv.add_argument("--columns", default=None,
                    help="comma-separated column projection")
    cv.set_defaults(fn=_cmd_convert)
    cp = sub.add_parser(
        "compact",
        help="rewrite a parquet table as right-sized files "
             "(optionally globally key-sorted for row-group pruning)")
    cp.add_argument("input", help="parquet file or directory")
    cp.add_argument("output", help="output directory")
    cp.add_argument("--target-rows", type=int, default=1_000_000,
                    help="rows per output file (default 1M)")
    cp.add_argument("--sort-by", default=None,
                    help="column to globally sort by before writing")
    cp.add_argument("--columns", default=None,
                    help="comma-separated column projection")
    cp.set_defaults(fn=_cmd_compact)
    cr = sub.add_parser(
        "check-refs",
        help="verify referential completeness (osmium check-refs): "
             "way->node refs and relation member refs")
    cr.add_argument("input", help="OSM XML / .pbf file or parquet "
                                  "corpus dir")
    cr.add_argument("--no-relations", action="store_true",
                    help="skip relation member checks")
    cr.set_defaults(fn=_cmd_check_refs)
    args = p.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
