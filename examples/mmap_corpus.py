"""Beyond-RAM corpora: the memory-mapped cold tier.

Compressed stores keep two tiers: hot codes (PQ / int8) that
every scan touches, and the cold float32 exact tier consulted only by
``refine=`` reranks and compaction.  With ``cold_storage="mmap"`` the
cold tier is spilled to per-segment ``.npy`` files and served through
``np.load(mmap_mode="r")`` — resident bytes collapse to the hot tier
while every answer stays bit-identical to the all-resident build.

The walkthrough below builds the same corpus both ways, compares the
byte accounting, streams inserts (sealed segments spill their cold
plane as they form), then reloads the saved index with
``MUST.from_saved`` the way a serving process would: no corpus needed,
cold tier never paged in until a refine asks for those exact rows.

Run:  python examples/mmap_corpus.py
"""

import shutil
import tempfile
from pathlib import Path

import numpy as np

from repro import MUST, Query, SearchOptions
from repro.core.multivector import MultiVectorSet, normalize_rows
from repro.core.weights import Weights

DIMS = (64, 32)  # two modalities (e.g. image + text embeddings)
N = 2000


def make_batch(n: int, rng: np.random.Generator) -> MultiVectorSet:
    return MultiVectorSet(
        [normalize_rows(rng.standard_normal((n, d)).astype(np.float32))
         for d in DIMS]
    )


def fmt_bytes(b: int) -> str:
    return f"{b / 1024:8.1f} KiB"


def report(tag: str, must: MUST) -> None:
    stats = must.memory_stats()
    print(f"{tag:>12}: hot {fmt_bytes(stats['hot_bytes'])}   "
          f"cold {fmt_bytes(stats['cold_bytes'])}   "
          f"resident {fmt_bytes(stats['resident_bytes'])}")


def main() -> None:
    rng = np.random.default_rng(11)
    corpus = make_batch(N, rng)
    weights = Weights.uniform(len(DIMS))
    query = Query(make_batch(1, rng).row(0))
    opts = SearchOptions(k=10, exact=True, refine=40)

    data_dir = Path(tempfile.mkdtemp(prefix="repro_mmap_example_"))
    try:
        # Same corpus, same PQ hot tier — one all-resident, one mmap'd.
        resident = MUST(corpus, weights=weights, compression="pq")
        resident.build()
        mapped = MUST(
            corpus,
            weights=weights,
            compression="pq",
            cold_storage="mmap",
            data_dir=data_dir,
        )
        mapped.build()

        report("resident", resident)
        report("mmap", mapped)
        cold_files = sorted(p.name for p in data_dir.glob("*.npy"))
        print(f"cold tier on disk: {cold_files}")

        # Refine reranks read the cold tier (~40 rows/query paged on
        # demand) and the answers match the resident build bit for bit.
        a = resident.query(query, opts)
        b = mapped.query(query, opts)
        assert np.array_equal(a.ids, b.ids)
        assert np.array_equal(a.similarities, b.similarities)
        print("refine rerank bit-identical to the resident build ✓")

        # Streaming: the delta stays resident (inserts need exact
        # vectors); each sealed segment spills its own cold file.
        mapped.insert(make_batch(300, rng))
        report("after insert", mapped)
        print(f"cold files now: {len(list(data_dir.glob('*.npy')))}")
        live = mapped.query(query, opts)

        # Serving-process restart: from_saved needs no corpus at all —
        # the seam that lets a beyond-RAM index load on a machine that
        # could never hold the float32 corpus.
        save_dir = data_dir / "saved_index"
        mapped.save_index(save_dir)
        served = MUST.from_saved(save_dir)
        report("from_saved", served)
        c = served.query(query, opts)
        assert np.array_equal(live.ids, c.ids)
        print("reloaded index answers bit-identically ✓")
    finally:
        shutil.rmtree(data_dir, ignore_errors=True)


if __name__ == "__main__":
    main()
