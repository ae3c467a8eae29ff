"""Golden outputs of the preset sweeps and a drift report against them.

    python3 bench/golden.py            # compare the current outputs
    python3 bench/golden.py --update   # store the current outputs

The goldens are the default CSV bytes of `cavrate sweep --preset P` for P in
fig2, fig3 and fig4: their SHA-256 hashes in `golden/hashes.json` and the
CSV text itself, so that a change can be reported per column as the largest
difference in units in the last place (ulp) and the largest relative
difference.  Presets whose CSV bytes are identical share one stored file.

Exit status: 0 when every hash matches, 1 when some output drifted.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import struct
import sys
import warnings
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
GOLDEN_DIR = HERE / "golden"
HASHES = GOLDEN_DIR / "hashes.json"
PRESETS = ("fig2", "fig3", "fig4")


def preset_csv(preset: str) -> bytes:
    """Default CSV bytes of `cavrate sweep --preset <preset>`."""
    from cavrate import cli
    from cavrate.errors import ExpansionRangeWarning
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ExpansionRangeWarning)
        config = cli.get_preset(preset)
        rows = cli.run_sweep(config)
    buf = io.StringIO()
    cli.write_csv(rows, config, buf)
    return buf.getvalue().encode("ascii")


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def parse_csv(data: bytes) -> tuple[list[str], list[list[float]]]:
    lines = data.decode("ascii").splitlines()
    header = lines[0].split(",")
    return header, [[float(v) for v in line.split(",")] for line in lines[1:]]


def load(preset: str) -> tuple[list[str], list[list[float]]]:
    """Columns and rows of the stored golden CSV of a preset."""
    entry = json.loads(HASHES.read_text())["presets"][preset]
    return parse_csv((GOLDEN_DIR / entry["file"]).read_bytes())


def ulp_distance(a: float, b: float) -> int:
    """Number of representable doubles between a and b."""
    def ordinal(x):
        (i,) = struct.unpack("<q", struct.pack("<d", x))
        return i if i >= 0 else -(1 << 63) - i
    return abs(ordinal(a) - ordinal(b))


def column_drift(golden, current):
    """Per column: (max ulp distance, max relative difference)."""
    header, rows = golden
    cur_header, cur_rows = current
    if header != cur_header or len(rows) != len(cur_rows):
        raise ValueError("column set or row count differs from the golden")
    out = {}
    for j, name in enumerate(header):
        max_ulp, max_rel = 0, 0.0
        for row, cur in zip(rows, cur_rows):
            a, b = row[j], cur[j]
            max_ulp = max(max_ulp, ulp_distance(a, b))
            if a != b:
                max_rel = max(max_rel, abs(a - b) / max(abs(a), abs(b)))
        out[name] = (max_ulp, max_rel)
    return out


def update() -> None:
    GOLDEN_DIR.mkdir(exist_ok=True)
    presets, files = {}, {}
    for preset in PRESETS:
        data = preset_csv(preset)
        digest = sha256(data)
        if digest not in files:
            files[digest] = f"{preset}.csv"
            (GOLDEN_DIR / files[digest]).write_bytes(data)
        presets[preset] = {"sha256": digest, "file": files[digest],
                           "bytes": len(data)}
    shared = [p for p in PRESETS
              if presets[p]["file"] != f"{p}.csv"]
    note = ", ".join(f"{p} is byte-identical to {presets[p]['file']}"
                     for p in shared)
    HASHES.write_text(json.dumps({"presets": presets, "note": note},
                                 indent=1) + "\n")


def report() -> int:
    stored = json.loads(HASHES.read_text())["presets"]
    drifted = 0
    for preset in PRESETS:
        data = preset_csv(preset)
        same = sha256(data) == stored[preset]["sha256"]
        print(f"{preset}: sha256 {'matches' if same else 'DIFFERS'}"
              f" (golden {stored[preset]['file']})")
        if same:
            continue
        drifted += 1
        for name, (ulp, rel) in column_drift(load(preset),
                                             parse_csv(data)).items():
            print(f"  {name:18s} max ulp {ulp:>20d}  max rel {rel:.3e}")
    return 1 if drifted else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--update", action="store_true",
                        help="overwrite the goldens with the current output")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))
    if args.update:
        update()
        return 0
    return report()


if __name__ == "__main__":
    sys.exit(main())
