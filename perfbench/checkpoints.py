"""Default-schedule checkpoints for the `generate` workload.

Users train once and generate many times, so the pointer and editor
checkpoints are trained once per source tree and cached. The cache key is the
sha256 of `src/skeltext/*.py`, the RunConfig and the training corpus. Training
runs in a child process so that its time and memory stay out of the measured
run; every load checks the recorded sha256 of each checkpoint file first.

Run as a script, this module is that child: it trains both stages and writes
the checkpoint directories plus `meta.json` into `--out`.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import time

from skeltext import RunConfig, TemplateSpec, annotate_corpus, default_stop_words, generate
from skeltext.training import (
    load_editor_dir,
    load_pointer_dir,
    save_model_dir,
    train_editor,
    train_pointer,
)

# The checkpoints are trained on the first 200 synthetic examples of this
# corpus seed, whatever the workload seed; `generate` draws its held-out
# tables from indices 200 and up of the workload seed. Training once per
# workload seed would cost minutes per seed.
TRAIN_SEED = 0
TRAIN_SIZE = 200
# Bump when the way checkpoints are produced changes, to invalidate caches.
FORMAT = 1
BUILD_TIMEOUT_S = 850
STAGES = ("pointer", "editor")
CHECKED_FILES = ("params.bin", "manifest.json", "config.json", "vocab.json", "keys.json")


class CheckpointError(RuntimeError):
    """A cached checkpoint is missing, damaged or could not be built."""


def file_sha256(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def source_sha256(src_dir: str) -> str:
    """Digest of every `skeltext/*.py` file, names included, in sorted order."""
    pkg = os.path.join(src_dir, "skeltext")
    digest = hashlib.sha256()
    for name in sorted(n for n in os.listdir(pkg) if n.endswith(".py")):
        digest.update(name.encode() + b"\0")
        with open(os.path.join(pkg, name), "rb") as fh:
            digest.update(fh.read())
        digest.update(b"\0")
    return digest.hexdigest()


def cache_key(src_dir: str, config: dict) -> str:
    spec = {
        "format": FORMAT,
        "source": source_sha256(src_dir),
        "config": config,
        "train_seed": TRAIN_SEED,
        "train_size": TRAIN_SIZE,
    }
    return hashlib.sha256(json.dumps(spec, sort_keys=True).encode()).hexdigest()


def ensure(src_dir: str, cache_root: str, config: dict, log) -> tuple[str, dict]:
    """Return (directory, meta) of the cached checkpoints, training them on a miss."""
    key = cache_key(src_dir, config)
    final = os.path.join(cache_root, f"ckpt-{key[:20]}")
    meta_path = os.path.join(final, "meta.json")
    if not os.path.exists(meta_path):
        os.makedirs(cache_root, exist_ok=True)
        tmp = f"{final}.tmp-{os.getpid()}"
        shutil.rmtree(tmp, ignore_errors=True)
        env = dict(os.environ)
        env["PYTHONPATH"] = src_dir
        cmd = [sys.executable, os.path.abspath(__file__), "--out", tmp,
               "--config", json.dumps(config), "--key", key]
        log({"event": "checkpoint_build", "dir": final})
        start = time.perf_counter()
        try:
            proc = subprocess.run(cmd, env=env, timeout=BUILD_TIMEOUT_S,
                                  stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
        except subprocess.TimeoutExpired as err:
            shutil.rmtree(tmp, ignore_errors=True)
            raise CheckpointError(f"checkpoint training exceeded {BUILD_TIMEOUT_S} s") from err
        if proc.returncode != 0:
            shutil.rmtree(tmp, ignore_errors=True)
            raise CheckpointError(f"checkpoint training failed:\n{proc.stderr[-2000:]}")
        os.replace(tmp, final)
        log({"event": "checkpoint_built", "dir": final,
             "wall_s": time.perf_counter() - start})
    with open(meta_path, encoding="utf-8") as fh:
        meta = json.load(fh)
    if meta.get("key") != key:
        raise CheckpointError(f"{meta_path} records key {meta.get('key')}, expected {key}")
    return final, meta


def verify(directory: str, meta: dict) -> None:
    """Compare every checkpoint file with the sha256 recorded when it was written."""
    for rel, expected in meta["sha256"].items():
        path = os.path.join(directory, rel)
        if not os.path.exists(path):
            raise CheckpointError(f"{path} is missing; delete {directory} to retrain")
        actual = file_sha256(path)
        if actual != expected:
            raise CheckpointError(
                f"{path}: sha256 {actual[:12]} does not match the recorded {expected[:12]}; "
                f"delete {directory} to retrain"
            )


def load(directory: str, meta: dict):
    """Verified load of (pointer, pointer_cfg, editor, editor_cfg)."""
    verify(directory, meta)
    pointer, pointer_cfg = load_pointer_dir(os.path.join(directory, "pointer"))
    editor, editor_cfg = load_editor_dir(os.path.join(directory, "editor"))
    return pointer, pointer_cfg, editor, editor_cfg


def _train(out: str, config: dict, key: str) -> None:
    cfg = RunConfig.from_dict(config)
    corpus = annotate_corpus(generate(TemplateSpec(seed=TRAIN_SEED), TRAIN_SIZE),
                             default_stop_words())
    meta = {"key": key, "config": config, "train_seed": TRAIN_SEED, "train_size": TRAIN_SIZE,
            "train_s": {}, "final_epoch": {}, "sha256": {}}
    for stage, train in zip(STAGES, (train_pointer, train_editor)):
        last_epoch: dict = {}

        def log(record: dict) -> None:
            if record["event"].endswith("_epoch"):
                last_epoch.update(record)

        start = time.perf_counter()
        model, _ = train(corpus, cfg, log)
        meta["train_s"][stage] = time.perf_counter() - start
        meta["final_epoch"][stage] = last_epoch
        save_model_dir(os.path.join(out, stage), model, cfg)
        for name in CHECKED_FILES:
            rel = f"{stage}/{name}"
            meta["sha256"][rel] = file_sha256(os.path.join(out, rel))
    with open(os.path.join(out, "meta.json"), "w", encoding="utf-8") as fh:
        json.dump(meta, fh, indent=1, sort_keys=True)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="train the cached generate checkpoints")
    parser.add_argument("--out", required=True)
    parser.add_argument("--config", required=True, help="RunConfig fields as JSON")
    parser.add_argument("--key", required=True)
    args = parser.parse_args(argv)
    _train(args.out, json.loads(args.config), args.key)
    return 0


if __name__ == "__main__":
    sys.exit(main())
