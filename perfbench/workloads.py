"""The workloads, their rounds, checks and metrics.

Imported by run.py after the BLAS thread variables are fixed and the
checkout's `src` is on sys.path.  Every call into supportq goes through a
module attribute (`sq_training.fit`, not a name bound here), so that the
wrappers tracing.install puts on those attributes see it.
"""

from __future__ import annotations

import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace

import numpy as np

import supportq.core as sq_core
import supportq.encoding as sq_encoding
import supportq.env as sq_env
import supportq.ingest as sq_ingest
import supportq.qnet.checkpoint as sq_checkpoint
import supportq.qnet.seq as sq_seq
import supportq.rewards as sq_rewards
import supportq.training as sq_training

import checks
import tracing

HERE = Path(__file__).resolve().parent
LAUNCH = HERE / "launch.py"

GAMMA = 0.85
HORIZON = 8  # supportq's default environment horizon: every episode has 8 steps
N_ACTIONS = 8
WINDOW = 2048
VOCAB_MAX = 4096
SETUP_REPEATS = 5
COMMAND_TIMEOUT_S = 60
# `supportq train` flags equal to today's defaults, fixed so the workload stays put if they change
MLP_TRAIN_FLAGS = ["--epochs", "4", "--batch-size", "64", "--rollout-episodes", "1000", "--gamma", str(GAMMA)]
MLP_TRAIN_STEPS = 4 * (1000 * HORIZON // 64)
MIN_ORACLE_AGREEMENT = 0.95
FD_PARAMS = ("tok_emb", "blocks.0.attn.wq", "blocks.1.mlp.w1", "ln_f.g", "head.w")
SELECT_CHECK_STATES = 2
# The seq vocabulary and initial weights do not follow --seed: with seeded weights the
# greedy policy, and with it the prompt lengths simulate meets, swung from seed to seed.
VOCAB_SESSIONS = 200
INIT_SEED = 0


@dataclass(frozen=True)
class Workload:
    name: str
    backend: str
    test_episodes: int  # sessions in the ESConv test file, 8 supporter turns each
    sim_episodes: int  # greedy episodes of `supportq simulate`; its random row runs as many
    train_items: tuple[int, int] = (0, 0)  # seq: [start, end) of one demo session's imitation items
    batch_size: int = 0  # seq: fit batch size; the slice is swept once, in order


WORKLOADS = {
    w.name: w
    for w in (
        Workload("mlp-pipeline", "mlp", test_episodes=360, sim_episodes=600),
        Workload("seq-pipeline", "seq", test_episodes=3, sim_episodes=2, train_items=(8, 16), batch_size=4),
    )
}


def log(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def child_env(root: Path, thread_env: dict) -> dict:
    """The benchmark's environment for supportq commands: no SUPPORTQ_* overrides,
    fixed threads and hash seed, and the checkout's sources first on the path."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("SUPPORTQ_")}
    env.update(thread_env)
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), str(HERE), os.environ.get("PYTHONPATH")]))
    return env


def machine_record(thread_env: dict) -> dict:
    blas = {}
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: deps.get(k) for k in ("name", "version", "openblas configuration") if k in deps}
    except (KeyError, TypeError, ValueError):
        pass
    return {
        "nproc": os.cpu_count(),
        "cpus_used": sorted(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "threads": {k: os.environ.get(k) for k in thread_env},
        "platform": platform.platform(),
    }


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


class Bench:
    def __init__(self, workload: Workload, seed: int, seconds: int, trace: bool, root: Path, thread_env: dict):
        self.w = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.root = root
        self.thread_env = thread_env
        self.child_env = child_env(root, thread_env)
        self.out = HERE / "out"
        self.tag = f"{workload.name}-seed{seed}-trace{int(trace)}"
        self.work = self.out / f"{self.tag}.work"
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        self.catalog = sq_core.default_catalog()
        self.tracer = tracing.Tracer() if trace else None
        self.active = False  # inside a traced unit
        self.span_files: list[Path] = []
        self.attempted = 0
        self.failed = 0
        self.check_log: list[dict] = []
        self.setups: list[dict] = []
        self.rounds: list[dict] = []

    # -- accounting -----------------------------------------------------------

    def ops(self, n: int, ok: bool) -> None:
        self.attempted += n
        if not ok:
            self.failed += n

    def check(self, name: str, fn, *args) -> None:
        self.attempted += 1
        try:
            value = fn(*args)
        except checks.CheckFailed as exc:
            detail = str(exc)
        except Exception:  # a check that cannot run on the output counts as failed
            detail = traceback.format_exc(limit=3)
        else:
            self.check_log.append({"check": name, "ok": True, **({} if value is None else {"value": value})})
            return
        self.failed += 1
        self.check_log.append({"check": name, "ok": False, "detail": detail})
        log(f"check {name} failed: {detail}")

    # -- tracing --------------------------------------------------------------

    @contextmanager
    def unit(self, kind: str, index: int, traced: bool):
        if not traced:
            yield
            return
        self.tracer.run = f"{kind}{index}"
        undo = tracing.install(self.tracer)
        self.active = True
        try:
            with self.tracer.span(kind):
                yield
        finally:
            self.active = False
            tracing.uninstall(undo)

    @contextmanager
    def phase(self, name: str):
        if not self.active:
            yield None
            return
        with self.tracer.span("phase." + name) as rec:
            yield self.tracer.span_id(rec)

    def command(self, argv: list[str], parent) -> tuple[bool, float]:
        cmd = [sys.executable, str(LAUNCH)]
        if parent is not None:
            path = self.work / f"spans-{len(self.span_files)}.jsonl"
            self.span_files.append(path)
            cmd += ["--spans", str(path), "--run", self.tracer.run, "--parent", parent]
        cmd += ["--", *argv]
        start = time.perf_counter()
        try:
            proc = subprocess.run(
                cmd, cwd=self.root, env=self.child_env, capture_output=True, text=True, timeout=COMMAND_TIMEOUT_S
            )
        except subprocess.TimeoutExpired:
            log(f"supportq {argv[0]} timed out after {COMMAND_TIMEOUT_S} s")
            return False, time.perf_counter() - start
        wall = time.perf_counter() - start
        if proc.returncode != 0:
            log(f"supportq {argv[0]} exited {proc.returncode}: {proc.stderr.strip()[-800:]}")
        return proc.returncode == 0, wall

    # -- set-up ---------------------------------------------------------------

    def setup(self) -> SimpleNamespace:
        """Inputs from the seed: the ESConv test file, and per backend the tabular Q*
        (mlp) or the vocabulary, training slice and initial weights (seq)."""
        w, seed = self.w, self.seed
        env = sq_env.StagedEnv(sq_env.StagedEnvConfig(horizon=HORIZON, seed=seed), catalog=self.catalog)
        s = SimpleNamespace(env=env)
        test_episodes = env.demo_episodes(w.test_episodes, seed=seed + 1)
        s.test_path = self.work / "test.json"
        sq_ingest.save_episodes(s.test_path, test_episodes, self.catalog)
        s.gold = checks.gold_counts(s.test_path)
        s.turns = sum(s.gold)
        if w.backend == "mlp":
            tab = env.to_tabular()
            progress = [lat.progress for lat in tab.latents] + [HORIZON]
            s.latents = tab.latents
            s.q_star = checks.backward_induction(tab.succ_idx, tab.succ_p, tab.rewards, tab.terminal, progress, GAMMA)
            q_program = sq_env.value_iteration(tab, GAMMA).q
            self.check("value_iteration_matches_backward_induction", checks.check_value_iteration, q_program, s.q_star)
        else:
            train_episodes = env.demo_episodes(1, seed=seed)
            transitions = sq_core.derive_transitions(train_episodes[0])
            start, end = w.train_items
            s.items = sq_rewards.imitation_rewards(transitions, self.catalog, seed=seed)[start:end]
            sessions = env.demo_episodes(VOCAB_SESSIONS, seed=INIT_SEED)
            corpus = [sq_encoding.render_mcq(sq_core.derive_transitions(sessions[0])[0].state, self.catalog)]
            for ep in sessions:
                corpus.append(ep.description)
                corpus.extend(t.text for t in ep.turns)
            s.vocab = sq_encoding.build_vocab(corpus, VOCAB_MAX)
            s.config = sq_seq.SeqConfig(vocab_size=s.vocab.size, d_model=64, n_heads=2, n_layers=2, n_ctx=WINDOW)
            s.init = sq_seq.SeqScorer(s.config, seed=INIT_SEED, window=WINDOW).params
            self.scorer(s).q_all(s.items[0].state, self.catalog, s.vocab)
        return s

    def scorer(self, s):
        return sq_seq.SeqScorer(s.config, params={n: a.copy() for n, a in s.init.items()}, window=WINDOW)

    # -- one round ------------------------------------------------------------

    def round(self, s, index: int, traced: bool) -> dict:
        w, seed = self.w, self.seed
        dirs = {name: self.work / name for name in ("train", "eval", "sim")}
        for d in dirs.values():
            shutil.rmtree(d, ignore_errors=True)
            d.mkdir()
        ckpt = dirs["train"] / "checkpoint.npz"
        row: dict = {"index": index, "traced": traced}
        start = time.perf_counter()
        with self.unit("round", index, traced):
            with self.phase("train") as parent:
                if w.backend == "mlp":
                    argv = ["train", "--reward", "env", "--backend", "mlp", "--seed", str(seed)]
                    ok, wall = self.command(argv + MLP_TRAIN_FLAGS + ["--out-dir", str(dirs["train"])], parent)
                    steps = MLP_TRAIN_STEPS
                else:
                    ok, wall = self.fit(s, ckpt)
                    steps = (w.train_items[1] - w.train_items[0]) // w.batch_size
            with self.phase("eval") as parent:
                argv = ["eval", "--checkpoint", str(ckpt), "--testset", str(s.test_path), "--seed", str(seed)]
                eval_ok, eval_wall = self.command(argv + ["--out-dir", str(dirs["eval"])], parent)
            with self.phase("simulate") as parent:
                argv = ["simulate", "--checkpoint", str(ckpt), "--episodes", str(w.sim_episodes)]
                argv += ["--seed", str(seed), "--gamma", str(GAMMA), "--out-dir", str(dirs["sim"])]
                sim_ok, sim_wall = self.command(argv, parent)
        row["wall_s"] = time.perf_counter() - start

        self.ops(steps, ok)
        self.ops(s.turns, eval_ok)
        self.ops(2 * w.sim_episodes, sim_ok)
        if ok:
            row["train_steps_per_s"] = steps / wall
            losses = s.log_losses if w.backend == "seq" else checks.read_losses(dirs["train"] / "loss.csv")
            self.check("losses_finite", checks.check_losses, losses, steps)
        if eval_ok:
            row["eval_turns_per_s"] = s.turns / eval_wall
            report = json.loads((dirs["eval"] / "report.json").read_text())
            confusion = checks.read_matrix_csv(dirs["eval"] / "confusion.csv")
            self.check("report_matches_confusion", checks.check_report_matches_confusion, report, confusion)
            self.check("gold_counts", checks.check_gold_counts, report, confusion, s.gold)
        if sim_ok:
            row["sim_steps_per_s"] = 2 * w.sim_episodes * HORIZON / sim_wall
            result = json.loads((dirs["sim"] / "simulate.json").read_text())
            transition = checks.read_matrix_csv(dirs["sim"] / "transition.csv")
            self.check("simulate_counts", checks.check_simulate, result, transition, w.sim_episodes, HORIZON)
        row["ok"] = ok and eval_ok and sim_ok
        s.last_ok = ok
        return row

    def fit(self, s, ckpt: Path) -> tuple[bool, float]:
        """`fit` on the slice for one epoch in order, then the checkpoint and vocabulary."""
        w = self.w
        cfg = sq_training.TrainerConfig(
            gamma=GAMMA, batch_size=w.batch_size, epochs=1, seed=self.seed, sample_in_order=True
        )
        scorer = self.scorer(s)
        start = time.perf_counter()
        try:
            train_log = sq_training.fit(s.items, scorer, self.catalog, s.vocab, cfg)
            sq_checkpoint.save_scorer(ckpt, scorer)
            s.vocab.save(ckpt.parent / "vocab.txt")
        except Exception:  # the program failed this phase: its steps count as failed
            log("fit failed:\n" + traceback.format_exc(limit=5))
            return False, time.perf_counter() - start
        wall = time.perf_counter() - start
        s.log_losses = [r.loss for r in train_log.records]
        s.first_record = train_log.records[0]
        return True, wall

    # -- checks on the last round's outputs -------------------------------------

    def final_checks(self, s) -> None:
        if not s.last_ok:
            return
        ckpt = self.work / "train" / "checkpoint.npz"
        if self.w.backend == "mlp":
            self.check("greedy_matches_q_star", self.check_oracle, s, ckpt)
        else:
            self.check("first_step_targets_and_loss", self.check_first_step, s)
            self.check("finite_difference_gradients", self.check_gradients, s)
            self.check("select_strategy_is_argmax_q_value", self.check_select, s, ckpt)
        gc.collect()

    def check_oracle(self, s, ckpt: Path) -> float:
        scorer, _ = sq_checkpoint.load_scorer(ckpt)
        greedy = {
            i: scorer.select_strategy(s.env.canonical_state(lat), self.catalog, None) for i, lat in enumerate(s.latents)
        }
        return checks.check_policy_agreement(greedy, s.q_star, MIN_ORACLE_AGREEMENT)

    def check_first_step(self, s) -> None:
        scorer = self.scorer(s)
        batch = [(t.state, t.action, t.reward, t.next_state, t.terminal) for t in s.items[: self.w.batch_size]]

        def q_value(state, action):
            value = scorer.q_value(state, action, self.catalog, s.vocab)
            gc.collect()  # the tape's reference cycles would otherwise pile up here
            return value

        rec = s.first_record
        checks.check_first_step(batch, q_value, N_ACTIONS, GAMMA, rec.loss, rec.mean_target)

    def check_gradients(self, s) -> None:
        scorer = self.scorer(s)
        item = s.items[0]
        target = float(item.reward)
        _, grads = scorer.loss_and_grads([(item.state, item.action, target)], self.catalog, s.vocab)

        def loss() -> float:
            return (scorer.q_value(item.state, item.action, self.catalog, s.vocab) - target) ** 2

        coords = checks.gradient_coordinates(grads, FD_PARAMS)
        checks.check_gradients(loss, scorer.params, grads, coords)

    def check_select(self, s, ckpt: Path) -> None:
        scorer, _ = sq_checkpoint.load_scorer(ckpt)
        vocab = sq_encoding.Vocabulary.load(ckpt.parent / "vocab.txt")
        episodes = sq_ingest.load_esconv(s.test_path, catalog=self.catalog)
        states = [t.state for ep in episodes for t in sq_core.derive_transitions(ep)]
        picks = np.random.default_rng(self.seed).choice(len(states), size=SELECT_CHECK_STATES, replace=False)
        checks.check_select_strategy(
            [states[i] for i in sorted(picks)],
            lambda st: scorer.select_strategy(st, self.catalog, vocab),
            lambda st, a: scorer.q_value(st, a, self.catalog, vocab),
            N_ACTIONS,
        )

    # -- the run --------------------------------------------------------------

    def run(self, spec: dict) -> dict:
        for i in range(SETUP_REPEATS):
            start = time.perf_counter()
            with self.unit("setup", i, self.trace):
                s = self.setup()
            self.setups.append({"index": i, "setup_s": time.perf_counter() - start})
            gc.collect()

        start = time.perf_counter()
        index = 0
        while True:
            traced = self.trace and index % 2 == 1
            gc.collect()  # every round starts from the same collector state
            self.rounds.append(self.round(s, index, traced))
            index += 1
            kinds = {r["traced"] for r in self.rounds}
            if time.perf_counter() - start >= self.seconds and (not self.trace or len(kinds) == 2):
                break
        rss = peak_rss_mb()
        self.final_checks(s)

        untraced = [r for r in self.rounds if not r["traced"]]
        e2e = {
            "setup_s": statistics.median(u["setup_s"] for u in self.setups),
            "peak_rss_mb": rss,
        }
        for key in ("train_steps_per_s", "eval_turns_per_s", "sim_steps_per_s"):
            values = [r[key] for r in untraced if key in r]
            e2e[key] = statistics.median(values) if values else 0.0
        record = {
            "workload": self.w.name,
            "seed": self.seed,
            "seconds": self.seconds,
            "trace": self.trace,
            "machine": machine_record(self.thread_env),
            "setups": self.setups,
            "rounds": self.rounds,
            "checks": self.check_log,
            "end_to_end": e2e,
        }
        names = [m["name"] for m in spec["end_to_end"]]
        if self.trace:
            record["per_layer"] = self.layers()
            names = [m["name"] for m in spec["per_layer"]]
            values = record["per_layer"]
        else:
            values = e2e
        units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
        record["result"] = {
            "correct": all(c["ok"] for c in self.check_log),
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {n: {"value": float(values[n]), "unit": units[n]} for n in names},
        }
        (self.out / f"{self.tag}.json").write_text(json.dumps(record, indent=1) + "\n")
        shutil.rmtree(self.work, ignore_errors=True)
        return record

    def layers(self) -> dict:
        """Per-layer metrics from every span of the run; writes the spans and, per span
        name, the calls, total and self time."""
        records = list(self.tracer.records())
        for path in self.span_files:
            if path.exists():
                records.extend(tracing.read_spans(path))
        span_path = self.out / f"{self.tag}.spans.jsonl"
        with open(span_path, "w", encoding="utf-8") as fh:
            for rec in records:
                fh.write(json.dumps(rec, separators=(",", ":")) + "\n")
        summary = tracing.summarize(records)
        units = {
            "setup": len(self.setups),
            "round": sum(1 for r in self.rounds if r["traced"]),
        }
        metrics = tracing.layer_metrics(summary, units)
        traced = [r["wall_s"] for r in self.rounds if r["traced"]]
        untraced = [r["wall_s"] for r in self.rounds if not r["traced"]]
        metrics["trace.round_s"] = statistics.median(traced)
        metrics["trace.untraced_round_s"] = statistics.median(untraced)
        metrics["trace.overhead_s"] = metrics["trace.round_s"] - metrics["trace.untraced_round_s"]
        layers = {"units": units, "span_file": str(span_path.relative_to(self.root)), "by_name": summary}
        (self.out / f"{self.tag}.layers.json").write_text(json.dumps(layers, indent=1) + "\n")
        log(f"spans: {span_path.relative_to(self.root)}")
        return metrics
