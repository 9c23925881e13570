"""Mutation check of the fast gates, run by hand (it is not a tier-1 test):

    python tests/mutants.py [NAME ...]

Each mutant is a few exact text edits to one file of a copy of src/: a
rewrite that looks harmless but breaks a contract the gates are meant to
hold.  For each named
mutant (all by default) the repository's src/, tests/ and pyproject.toml are
copied to a temporary directory, the edit is made there, and the mutant's
gates are run on the copy with pytest.  A mutant is killed when every one of
its gates fails, and survives when one passes.  Exits 1 if any survived.
tests/test_mutants.py checks, in tier-1, that every old text still occurs
exactly once in src/, so this list cannot rot unseen."""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent


@dataclass(frozen=True)
class Mutant:
    name: str
    path: str  # relative to src/fedper
    edits: tuple[tuple[str, str], ...]  # (old text, new text), made in order
    gates: tuple[str, ...]  # pytest node ids, each of which must fail

    def apply(self, src: Path) -> None:
        path = src / "fedper" / self.path
        text = path.read_text()
        for old, new in self.edits:
            if text.count(old) != 1:
                raise ValueError(f"{self.name}: {old!r} occurs {text.count(old)} times in {self.path}")
            text = text.replace(old, new)
        path.write_text(text)


MUTANTS = (
    # the per-row batch-size division is not its reciprocal's multiply;
    # tests/reference.py runs its own backward pass, which divides
    Mutant(
        "reciprocal-batch-division", "nn.py", (("    delta /= counts\n", "    delta *= 1 / counts\n"),),
        (
            "tests/test_golden.py",
            "tests/test_protocol.py::TestTrainingReference",
            "tests/test_protocol.py::TestFedAvgEquivalence",
            "tests/test_reference.py::test_gradients_equal_the_engines_bitwise",
        ),
    ),
    # every layer of a weight block's row starts at an even column
    # (nn.columns), so that each W is 16-byte aligned, as a fresh array is
    Mutant(
        "odd-layer-start", "nn.py",
        (("((o * i + o + 1) // 2 * 2 for o, i in shapes)", "(o * i + o for o, i in shapes)"),),
        ("tests/test_nn.py::TestColumns",),
    ),
    # a gradient block's pad columns are 0.0, so a step leaves the weight
    # block's pads 0.0
    Mutant(
        "pads-left-uninitialised", "nn.py", (("    grad = np.zeros(", "    grad = np.empty("),),
        (
            "tests/test_protocol.py::TestRowBudget::test_one_row_budget_changes_no_output",
            "tests/test_protocol.py::TestBlockLayout",
        ),
    ),
    # aggregation adds the weighted client deltas in client order
    Mutant(
        "reverse-aggregation-order", "protocol.py",
        (("    return np.add.reduce(d, axis=0)\n", "    return np.add.reduce(d[::-1], axis=0)\n"),),
        (
            "tests/test_golden.py",
            "tests/test_protocol.py::TestTrainingReference",
            "tests/test_protocol.py::TestFedAvgEquivalence",
            "tests/test_protocol.py::TestAggregate::test_bitwise_equals_the_reference_loop",
        ),
    ),
    # the fine-tune pass trains the personal layers only, the base frozen
    Mutant(
        "fine-tune-trains-base", "protocol.py",
        (("batch_size, spec.k_base, sgd_plan.workspace, budget)", "batch_size, 0, sgd_plan.workspace, budget)"),),
        (
            "tests/test_golden.py",
            "tests/test_protocol.py::TestTrainingReference",
            "tests/test_experiment.py::TestFineTunedRun",
        ),
    ),
    # every client of a pass draws its batches from its own stream
    Mutant(
        "shared-pass-generator", "protocol.py",
        ((
            "    return [_client_stream(cfg, j, round_idx, purpose) for j in clients]\n",
            "    return [_client_stream(cfg, clients[0], round_idx, purpose)] * len(clients)\n",
        ),),
        (
            "tests/test_golden.py",
            "tests/test_protocol.py::TestTrainingReference",
            "tests/test_protocol.py::TestFedAvgEquivalence",
        ),
    ),
    # a client's upload carries its base update, never its personal layers
    Mutant(
        "personal-payload-on-the-wire", "protocol.py",
        ((
            "server.log(client_name(j), SERVER, MSG_BASE_WEIGHTS)",
            "server.log(client_name(j), SERVER, MSG_PERSONAL_WEIGHTS)",
        ),),
        (
            "tests/test_acceptance.py::test_criterion_04_privacy_invariant",
            "tests/test_protocol.py::TestRunFederation::test_privacy_no_personal_payloads_and_log_shape",
        ),
    ),
    # an argmax tie goes to the lowest class
    Mutant(
        "tie-to-highest-class", "metrics.py",
        (("(np.argmax(logits, axis=-1) == y)", "(logits.shape[-1] - 1 - np.argmax(logits[:, ::-1], axis=-1) == y)"),),
        (
            "tests/test_metrics.py::TestEvaluate::test_tie_breaks_to_lowest_index",
            "tests/test_protocol.py::TestStackedEvaluation",
            "tests/test_protocol.py::TestTrainingReference",
        ),
    ),
    # a step scales the gradients by eta after the gemms, not the delta
    # before them: the products round differently
    Mutant(
        "eta-folded-into-the-delta", "nn.py",
        (
            ("    onehot: np.ndarray, counts, first_trained: int = 0,\n",
             "    onehot: np.ndarray, counts, first_trained: int = 0, eta: float = 1.0,\n"),
            ("    delta /= counts\n", "    delta /= counts\n    delta *= eta\n"),
            ("axis=0), counts, first)\n", "axis=0), counts, first, eta)\n"),
            ("            g *= eta\n", ""),
        ),
        (
            "tests/test_golden.py",
            "tests/test_protocol.py::TestTrainingReference",
            "tests/test_protocol.py::TestFedAvgEquivalence",
        ),
    ),
    # each client's gemm runs on its own slice, even for the base layers
    # every member of a launch shares
    Mutant(
        "shared-layers-as-one-tall-gemm", "nn.py",
        (
            ("segments: Sequence[list[tuple]]) -> np.ndarray:\n",
             "segments: Sequence[list[tuple]], shared: int = 0) -> np.ndarray:\n"),
            ("            np.matmul(x, wt, out=z)\n",
             "            if i < shared:\n"
             "                np.matmul(acts[i], wt[0], out=acts[i + 1])\n"
             "                acts[i + 1] += bias[0]\n"
             "                break\n"
             "            np.matmul(x, wt, out=z)\n"),
            ("            _forward(spec, acts, segments)\n",
             "            _forward(spec, acts, segments, min(first, spec.k_base))\n"),
            ("measure(_forward(self.spec, acts, segments),", "measure(_forward(self.spec, acts, segments, self.spec.k_base),"),
        ),
        (
            "tests/test_golden.py",
            "tests/test_protocol.py::TestTrainingReference",
            "tests/test_protocol.py::TestStackedEvaluation",
        ),
    ),
    # the same, in scoring alone: every set of a scoring launch is scored
    # with the round's base, yet each client's gemm runs on its own rows
    Mutant(
        "scoring-shared-layers-as-one-tall-gemm", "nn.py",
        (
            ("segments: Sequence[list[tuple]]) -> np.ndarray:\n",
             "segments: Sequence[list[tuple]], shared: int = 0) -> np.ndarray:\n"),
            ("            np.matmul(x, wt, out=z)\n",
             "            if i < shared:\n"
             "                np.matmul(acts[i], wt[0], out=acts[i + 1])\n"
             "                acts[i + 1] += bias[0]\n"
             "                break\n"
             "            np.matmul(x, wt, out=z)\n"),
            ("measure(_forward(self.spec, acts, segments),", "measure(_forward(self.spec, acts, segments, self.spec.k_base),"),
        ),
        (
            "tests/test_protocol.py::TestScoringReference",
            "tests/test_protocol.py::TestStackedEvaluation",
            "tests/test_protocol.py::TestTrainingReference",
        ),
    ),
    # a launch's batches of each size are a segment of their own; padding
    # them to the launch's largest batch, with rows whose delta is 0, keeps
    # every gradient's value but changes the gemm shapes and the rounding
    Mutant(
        "ragged-segment-padded-to-the-largest-batch", "nn.py",
        (
            ("            positions = np.arange(n.sum()) + np.repeat(at - np.cumsum(n) + n, n)\n",
             "            positions = (at[:, None] + np.minimum(np.arange(n.max()), n[:, None] - 1)).ravel()\n"),
            ("    m = r = 0\n    for g, n in shapes:\n"
             "        yield slice(m, m + g), [a[r : r + g * n].reshape(g, n, *a.shape[1:]) for a in arrays]\n"
             "        m, r = m + g, r + g * n\n",
             "    m, r, top = 0, 0, max(n for _, n in shapes)\n    for g, n in shapes:\n"
             "        yield slice(m, m + g), [a[r : r + g * top].reshape(g, top, *a.shape[1:]) for a in arrays]\n"
             "        m, r = m + g, r + g * top\n"),
            ("            counts = np.repeat([float(n) for _, n in shapes], [k * n for k, n in shapes])[:, None]\n",
             "            top = max(n for _, n in shapes)\n"
             "            counts = np.concatenate(\n"
             "                [np.tile(np.where(np.arange(top) < n, float(n), np.inf), k) for k, n in shapes]\n"
             "            )[:, None]\n"),
            ("np.add.reduce(v, axis=-1) / n", "np.add.reduce(v[:, :n], axis=-1) / n"),
        ),
        (
            "tests/test_golden.py",
            "tests/test_protocol.py::TestTrainingReference",
            "tests/test_protocol.py::TestRowBudget",
        ),
    ),
    # a pass on the thread pool runs in a copy of the round's context, so
    # that the round's np.errstate raises on an overflow there too
    Mutant(
        "pool-task-outside-the-rounds-errstate", "protocol.py",
        (("pool.submit(contextvars.copy_context().run, *call)", "pool.submit(*call)"),),
        ("tests/test_protocol.py::TestClientGroups::test_overflow_in_a_group_ends_the_run",),
    ),
    # a run that fails in a round ends its pool, as one that completes does
    Mutant(
        "pool-left-open-after-a-failed-round", "protocol.py",
        (("    finally:\n        fed.close()\n", "    except BaseException:\n        raise\n    fed.close()\n"),),
        ("tests/test_protocol.py::TestClientGroups::test_overflow_in_a_group_ends_the_run",),
    ),
    # the run draws the shared base from the server's stream, not a client's
    Mutant(
        "server-base-from-a-client-stream", "protocol.py",
        ((
            "rngmod.substream(cfg.master_seed, rngmod.SERVER_PARTY, 0, rngmod.INIT)",
            "_client_stream(cfg, 0, 0, rngmod.INIT)",
        ),),
        (
            "tests/test_golden.py",
            "tests/test_protocol.py::TestTrainingReference",
            "tests/test_protocol.py::TestRunFederation::test_base_is_drawn_from_the_servers_stream",
        ),
    ),
    # the run refuses rows that are not float64 and labels that are not
    # integers at its door, not inside a pass or after training on a cast
    Mutant(
        "door-without-dtype-check", "protocol.py",
        (("if rows.x.dtype.type is not np.float64 or not np.issubdtype(rows.y.dtype, np.integer):", "if False:"),),
        tuple(
            "tests/test_protocol.py::TestRunFederation::"
            f"test_a_side_that_does_not_fit_the_clients_or_the_model_rejected[{case}-{kind}]"
            for case in (
                *(f"{name}-rows" for name in ("float32", "float16", "int64", "bool", "complex128", "object")),
                "float64-labels", "bool-labels",
            )
            for kind in ("training", "test")
        ),
    ),
    # the fit check leaves every client a test sample
    Mutant(
        "fit-check-without-split", "data.py", (("enumerate(sizes)", "enumerate([])"),),
        (
            "tests/test_cli.py::TestInputValidation::"
            "test_a_config_that_does_not_fit_its_data_is_refused_by_every_command",
            "tests/test_cli.py::TestInputValidation::"
            "test_sweep_point_leaving_a_client_without_a_test_sample_refused_before_any_trains",
            "tests/test_cli.py::TestInputValidation::"
            "test_unbalanced_client_without_a_test_sample_refused_by_its_drawn_volume",
        ),
    ),
    # k_personal runs to every layer: an all-personal model, each client
    # training alone, is the end of the axis opposite FedAvg
    Mutant(
        "all-personal-refused", "model.py",
        (("if self.k_personal > len(self.layers):", "if self.k_personal >= len(self.layers):"),),
        (
            "tests/test_protocol.py::TestTrainingReference::test_all_personal_run_is_every_client_training_alone",
            "tests/test_model.py::TestSpec::test_rejects_more_personal_layers_than_the_model_has",
        ),
    ),
)


def run(mutant: Mutant) -> list[tuple[str, bool, float]]:
    """(gate, whether it failed, seconds) for each of the mutant's gates."""
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        for name in ("src", "tests"):
            shutil.copytree(REPO / name, root / name, ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(REPO / "pyproject.toml", root)
        mutant.apply(root / "src")
        results = []
        for gate in mutant.gates:
            start = time.perf_counter()
            proc = subprocess.run(
                [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", gate],
                cwd=root, env={**os.environ, "PYTHONPATH": str(root / "src")},
                stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
            )
            if proc.returncode not in (0, 1):  # pytest's codes for all passed and some failed
                raise RuntimeError(f"{mutant.name}: pytest {gate} exited {proc.returncode}")
            results.append((gate, proc.returncode == 1, time.perf_counter() - start))
        return results


def main(names: list[str]) -> int:
    unknown = set(names) - {m.name for m in MUTANTS}
    if unknown:
        print(f"unknown mutant(s): {', '.join(sorted(unknown))}", file=sys.stderr)
        return 2
    survived = []
    for mutant in MUTANTS:
        if names and mutant.name not in names:
            continue
        results = run(mutant)
        for gate, failed, seconds in results:
            print(f"{mutant.name}: {gate}: {'failed' if failed else 'PASSED'} in {seconds:.1f} s")
        if not all(failed for _, failed, _ in results):
            survived.append(mutant.name)
    print(f"survived: {', '.join(survived)}" if survived else "every mutant was killed")
    return 1 if survived else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
