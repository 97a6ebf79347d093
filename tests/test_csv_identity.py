"""scripts/csv_identity.py: the byte-identity set of two checkouts, on short runs."""

import shutil
import subprocess
import sys
from pathlib import Path

from sbmm.bench import CSV_FIELDS

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "scripts" / "csv_identity.py"


def _checkout(path: Path) -> Path:
    """The parts of this checkout the set runs: src, configs and perfbench."""
    for part in ("src", "configs", "perfbench"):
        shutil.copytree(ROOT / part, path / part,
                        ignore=shutil.ignore_patterns("__pycache__", ".perfbench_work"))
    return path


def test_csv_identity_names_each_file(tmp_path):
    # two copies of this checkout, the second with one OMF emission changed:
    # every OMF CSV differs, the CPDL and rank-5 ones (other inputs) are
    # identical, and the script exits 1; stderr gives the size of each
    # difference, a positive largest |change| / (1 + |parent|), and its
    # column
    parent, change = _checkout(tmp_path / "parent"), _checkout(tmp_path / "change")
    emissions = change / "configs" / "emissions_omf.csv"
    lines = emissions.read_text(encoding="utf-8").splitlines()
    lines[-1] = lines[-1].replace("0", "1", 1)
    emissions.write_text("\n".join(lines) + "\n", encoding="utf-8")
    out = subprocess.run([sys.executable, str(SCRIPT), str(parent), str(change), "--steps", "12"],
                         capture_output=True, text=True, timeout=300)
    assert out.returncode == 1, out.stderr
    verdicts = dict(line.rsplit(": ", 1) for line in out.stdout.splitlines()[:-1])
    assert len(verdicts) == 58
    assert out.stdout.splitlines()[-1] == "15 of 58 identical"
    sizes = dict(line.split(": largest |change| / (1 + |parent|) ", 1)
                 for line in out.stderr.splitlines() if ": largest |change| " in line)
    for name, verdict in verdicts.items():
        same = Path(name).name.startswith(("cpdl", "omf_rank5"))
        assert verdict == ("identical" if same else "differs"), name
        if same:
            assert name not in sizes
        else:
            size, _, column = sizes[name].split(" ", 2)
            assert float(size) > 0.0 and column.removeprefix("column ") in CSV_FIELDS, name
    assert (parent / ".csv_identity" / "out" / "sweep" / "omf_markov_seed3.csv").exists()
    assert (parent / ".csv_identity" / "out" / "sweep16" / "omf_markov_seed15.csv").exists()
    assert (parent / ".csv_identity" / "out" / "sweep" / "omf_rank5_seed2.csv").exists()
    # the work of omf_markov and cpdl at each seed, of the omf_markov sweeps,
    # of each rank-5 run and of the rank-5 sweep, counted in each checkout:
    # no run calls np.linalg.inv (rank 2 takes the closed form, every other
    # rank the active-set method), the sweeps and rank-5 runs, whose ball
    # binds, count ball-search evaluations, and a single rank-2 run counts
    # only those of the searches that bind (its box solve at mu = 0 comes
    # before any search), none for cpdl's 12 steps; no rank-5 run evaluates
    # a rank-2 candidate, and the same code on the same inputs (all but the
    # OMF runs) does the same work
    work = [line for line in out.stderr.splitlines() if " work (parent -> change): " in line]
    assert [line.split(" work")[0] for line in work] == (
        [f"{name}_seed{s}" for name in ("cpdl", "omf_markov") for s in range(3)]
        + ["omf_markov_sweep", "omf_markov_sweep16", "omf_rank5_in2_seed1"]
        + [f"omf_rank5_seed{s}" for s in range(3)] + ["omf_rank5_sweep"])
    for line in work:
        name = line.split(" work")[0]
        items = [item.split() for item in line.split(": ", 1)[1].split(", ")]
        assert [key for key, *_ in items] == ["ball_evals", "pair_candidates", "cholesky", "eigh",
                                              "solve", "inv"]
        counts = {key: (int(before), int(after)) for key, before, _, after in items}
        assert counts.pop("inv") == (0, 0), line
        if name.startswith("cpdl"):
            assert counts["ball_evals"] == (0, 0), line
        elif not name.startswith("omf_markov_seed"):
            assert min(counts["ball_evals"]) > 0, line
        if not name.startswith("omf_markov"):
            assert all(before == after for before, after in counts.values()), line
        if name.startswith("omf_rank5"):
            assert counts.pop("pair_candidates") == (0, 0), line
            assert all(before > 0 for before, _ in counts.values()), line
