"""The persistent conversion cache: content-addressed, version-stamped,
atomic, and failure-is-a-miss.

The properties under test are the ones the server depends on: parallel
writers of the same key never corrupt each other (atomic
write-then-rename), a torn/truncated/stale entry degrades to a miss
(never an exception, never a wrong value), and a warm restart replays
the exact conversion — bit-for-bit identical DIMACS — while reporting
its disk hits.
"""

import io
import multiprocessing
import os
import pickle
import shutil

from repro.anf import AnfSystem, parse_system
from repro.core.anf_to_cnf import AnfToCnf, system_fingerprint
from repro.core.config import Config
from repro.sat.dimacs import write_dimacs
from repro.server.cache import CACHE_VERSION, CacheStore, content_key

ANF = """
x0*x1 + x2 + 1
x1*x2 + x0
x0 + x1 + x2 + 1
"""


def _system():
    ring, polys = parse_system(ANF)
    return AnfSystem(ring, polys)


def _dimacs(result):
    buf = io.StringIO()
    write_dimacs(buf, result.formula)
    return buf.getvalue()


# -- store primitives -------------------------------------------------------


def test_put_get_round_trip(tmp_path):
    store = CacheStore(str(tmp_path))
    key = content_key(("shape", 1, 2, 3))
    value = [(0b101, 0b010), (0b011, 0b100)]
    assert store.put("karnaugh", key, value)
    assert store.get("karnaugh", key) == value


def test_missing_entry_is_a_miss(tmp_path):
    store = CacheStore(str(tmp_path))
    assert store.get("karnaugh", content_key("absent")) is None


def test_namespaces_do_not_collide(tmp_path):
    store = CacheStore(str(tmp_path))
    key = content_key("same-key")
    store.put("karnaugh", key, "covers")
    store.put("conversion", key, "whole-result")
    assert store.get("karnaugh", key) == "covers"
    assert store.get("conversion", key) == "whole-result"


def _entry_path(store, namespace, key):
    paths = []
    root = os.path.join(store.root, namespace)
    for dirpath, _dirnames, filenames in os.walk(root):
        paths.extend(os.path.join(dirpath, f) for f in filenames)
    assert len(paths) == 1
    return paths[0]


def test_truncated_entry_is_a_miss(tmp_path):
    store = CacheStore(str(tmp_path))
    key = content_key("will-be-torn")
    store.put("karnaugh", key, list(range(100)))
    path = _entry_path(store, "karnaugh", key)
    with open(path, "rb") as f:
        blob = f.read()
    with open(path, "wb") as f:
        f.write(blob[: len(blob) // 2])
    assert store.get("karnaugh", key) is None


def test_garbage_entry_is_a_miss(tmp_path):
    store = CacheStore(str(tmp_path))
    key = content_key("garbage")
    store.put("karnaugh", key, "value")
    path = _entry_path(store, "karnaugh", key)
    with open(path, "wb") as f:
        f.write(b"this is not a pickle at all")
    assert store.get("karnaugh", key) is None


def test_version_stamp_mismatch_is_a_miss(tmp_path):
    # An entry written by a future (or past) format version must never
    # be served: the conversion layout may have changed under it.
    store = CacheStore(str(tmp_path))
    key = content_key("versioned")
    store.put("karnaugh", key, "value")
    path = _entry_path(store, "karnaugh", key)
    with open(path, "wb") as f:
        pickle.dump(
            {"version": CACHE_VERSION + 1, "key": key, "value": "value"}, f
        )
    assert store.get("karnaugh", key) is None


def test_embedded_key_mismatch_is_a_miss(tmp_path):
    # Hash collisions (or a mis-filed entry) are caught by the embedded
    # full key, not trusted on file name alone.
    store = CacheStore(str(tmp_path))
    key = content_key("the-real-key")
    store.put("karnaugh", key, "value")
    path = _entry_path(store, "karnaugh", key)
    with open(path, "wb") as f:
        pickle.dump(
            {"version": CACHE_VERSION, "key": "some-other-key",
             "value": "value"}, f
        )
    assert store.get("karnaugh", key) is None


def _hammer_one_key(args):
    root, key, worker_id = args
    store = CacheStore(root)
    ok = True
    for i in range(25):
        # Every writer writes a *valid* (worker-tagged) value; readers
        # must only ever observe complete entries, whoever won the race.
        ok &= store.put("karnaugh", key, ("cover-from", worker_id, i))
        got = store.get("karnaugh", key)
        if got is None or got[0] != "cover-from":
            ok = False
    return ok


def test_concurrent_writers_same_key_stay_atomic(tmp_path):
    key = content_key("contended")
    ctx = multiprocessing.get_context("fork")
    with ctx.Pool(4) as pool:
        results = pool.map(
            _hammer_one_key, [(str(tmp_path), key, w) for w in range(4)]
        )
    assert all(results)
    # Whatever write won last, the entry is complete and well-formed.
    got = CacheStore(str(tmp_path)).get("karnaugh", key)
    assert got is not None and got[0] == "cover-from"


# -- conversion integration -------------------------------------------------


def test_warm_restart_round_trip_bit_for_bit(tmp_path):
    config = Config(cache_dir=str(tmp_path))
    cold = AnfToCnf(config).convert(_system())
    assert cold.stats.conversion_disk_hits == 0
    warm = AnfToCnf(config).convert(_system())
    assert warm.stats.conversion_disk_hits == 1
    # The loaded conversion resets its work counters: nothing was
    # reconverted, so the Karnaugh counters must all read zero.
    assert warm.stats.karnaugh_cache_misses == 0
    assert warm.stats.karnaugh_cache_hits == 0
    assert _dimacs(warm) == _dimacs(cold)


def test_karnaugh_disk_tier_hits_without_conversion_cache(tmp_path):
    config = Config(cache_dir=str(tmp_path))
    cold = AnfToCnf(config).convert(_system())
    assert cold.stats.karnaugh_cache_misses > 0
    # Dropping the whole-conversion namespace forces a real
    # re-conversion, so any reuse must come from the per-shape Karnaugh
    # disk tier.
    shutil.rmtree(tmp_path / "conversion")
    warm = AnfToCnf(config).convert(_system())
    assert warm.stats.conversion_disk_hits == 0
    assert warm.stats.karnaugh_disk_hits > 0
    assert warm.stats.karnaugh_cache_misses == 0
    assert _dimacs(warm) == _dimacs(cold)


def test_no_cache_dir_means_no_store():
    converter = AnfToCnf(Config())
    assert converter.store is None
    result = converter.convert(_system())
    assert result.stats.conversion_disk_hits == 0
    assert result.stats.karnaugh_disk_hits == 0


def test_fingerprint_sensitive_to_system_and_config():
    ring, polys = parse_system(ANF)
    base = Config()
    fp = system_fingerprint(ring.n_vars, polys, None, base)
    assert fp == system_fingerprint(ring.n_vars, polys, None, base)
    assert fp != system_fingerprint(
        ring.n_vars, polys[:-1], None, base
    )
    assert fp != system_fingerprint(
        ring.n_vars, polys, None, base.with_(karnaugh_limit=4)
    )
    assert fp != system_fingerprint(
        ring.n_vars, polys, None, base.with_(xor_cut_len=4)
    )


def test_corrupt_conversion_entry_degrades_to_reconversion(tmp_path):
    config = Config(cache_dir=str(tmp_path))
    cold = AnfToCnf(config).convert(_system())
    # Tear every conversion entry on disk.
    for dirpath, _dirnames, filenames in os.walk(
        os.path.join(str(tmp_path), "conversion")
    ):
        for name in filenames:
            with open(os.path.join(dirpath, name), "wb") as f:
                f.write(b"\x80corrupt")
    warm = AnfToCnf(config).convert(_system())
    assert warm.stats.conversion_disk_hits == 0
    assert _dimacs(warm) == _dimacs(cold)
