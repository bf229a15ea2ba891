"""Search-baseline checkpoints for the match phase of every workload.

Each game's baseline is trained by ``baseline.smcts_train`` from the
source tree under test and saved with ``persist.save_smcts_agent`` into
``perfbench/.cache/<game>/``. A stamp file holds a hash of ``src/`` and
of the baseline config; a checkpoint whose stamp differs is rebuilt, so
the baseline always comes from the code being measured.

Rebuild every baseline from the current source tree:

    python3 perfbench/checkpoints.py --force
"""

from __future__ import annotations

import argparse
import hashlib
import os
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CACHE = os.path.join(HERE, ".cache")


def source_hash(game_id: str) -> str:
    """Hash of every file under src/ and of the baseline's config."""
    from workloads import BASELINES
    h = hashlib.sha256(repr(BASELINES[game_id]).encode())
    src = os.path.join(ROOT, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            if name.endswith(".pyc"):
                continue
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, src).encode())
            with open(path, "rb") as fh:
                h.update(fh.read())
    preset = os.path.join(ROOT, "configs", BASELINES[game_id][0])
    with open(preset, "rb") as fh:
        h.update(fh.read())
    return h.hexdigest()


def checkpoint_dir(game_id: str) -> str:
    return os.path.join(CACHE, game_id.replace(":", "-"))


def is_current(game_id: str) -> bool:
    stamp = os.path.join(checkpoint_dir(game_id), "STAMP")
    if not os.path.exists(stamp):
        return False
    with open(stamp) as fh:
        return fh.read().strip() == source_hash(game_id)


def build(game_id: str):
    """Train and save one baseline; replaces any older checkpoint."""
    from equilearn import baseline, persist
    from workloads import baseline_config
    cfg = baseline_config(ROOT, game_id)
    agent = baseline.smcts_train(cfg)
    final = checkpoint_dir(game_id)
    tmp = final + ".tmp"
    shutil.rmtree(tmp, ignore_errors=True)
    persist.save_smcts_agent(agent, tmp, cfg["game"])
    with open(os.path.join(tmp, "STAMP"), "w") as fh:
        fh.write(source_hash(game_id) + "\n")
    shutil.rmtree(final, ignore_errors=True)
    os.replace(tmp, final)


def main(argv=None) -> int:
    from workloads import BASELINES
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--force", action="store_true",
                        help="rebuild even when the stamp matches")
    args = parser.parse_args(argv)
    sys.path.insert(0, os.path.join(ROOT, "src"))
    for game_id in sorted(BASELINES):
        if args.force or not is_current(game_id):
            print(f"building search baseline for {game_id}", flush=True)
            build(game_id)
    return 0


if __name__ == "__main__":
    sys.exit(main())
