//! The GON discriminator network and input-space generation loop.

use edgesim::state::{SystemState, GRAPH_DIM, METRIC_DIM, SCHED_DIM};
use nn::init::Initializer;
use nn::kernel;
use nn::layer::{Activation, ActivationKind, Dense, Layer, Param, Sequential};
use nn::{GatReference, GraphAttention, Matrix};
use rand::rngs::StdRng;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Hyperparameters of the GON network.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GonConfig {
    /// Hidden width of every feed-forward layer (paper: 128, §IV-E).
    pub hidden: usize,
    /// Number of hidden layers in the head. The paper's grid search picks
    /// 3 layers (a ~1 GB process footprint on the Pi); the sensitivity
    /// analysis of Fig. 6(b) sweeps this.
    pub head_layers: usize,
    /// GAT embedding width.
    pub gat_dim: usize,
    /// GAT attention key/query width.
    pub gat_att: usize,
    /// Step size γ of the generation loop (paper: 1e-3 optimal, Fig. 6a).
    pub gen_lr: f64,
    /// Maximum generation iterations per query.
    pub gen_steps: usize,
    /// Convergence threshold on the metric-update norm.
    pub gen_tol: f64,
    /// Parameter-initialisation seed.
    pub seed: u64,
}

impl Default for GonConfig {
    fn default() -> Self {
        Self {
            hidden: 128,
            head_layers: 3,
            gat_dim: 32,
            gat_att: 16,
            gen_lr: 1e-3,
            gen_steps: 40,
            gen_tol: 1e-7,
            seed: 7,
        }
    }
}

impl GonConfig {
    /// Maps a target process footprint in GB to a layer count, following
    /// the paper's sensitivity grid (Fig. 6b: {0.25, 0.5, 1, 2, 5} GB ↔
    /// growing network depth, with 1 GB = 3 layers chosen).
    pub fn with_memory_gb(mut self, gb: f64) -> Self {
        self.head_layers = if gb <= 0.25 {
            1
        } else if gb <= 0.5 {
            2
        } else if gb <= 1.0 {
            3
        } else if gb <= 2.0 {
            4
        } else {
            6
        };
        self
    }

    /// Nominal process footprint in GB implied by the layer count — the
    /// figure the paper reports for Fig. 5(e)/6(b). The parameters
    /// themselves are tiny; the footprint models the full inference stack
    /// (activations, framework, buffers) measured on the testbed.
    pub fn nominal_memory_gb(&self) -> f64 {
        match self.head_layers {
            0 | 1 => 0.25,
            2 => 0.5,
            3 => 1.0,
            4 => 2.0,
            _ => 5.0,
        }
    }
}

/// Result of one generation query (eq. 1 run to convergence).
#[derive(Debug, Clone)]
pub struct Generated {
    /// The converged performance-metric prediction `M*` (flattened,
    /// `n_hosts × METRIC_DIM`, values clamped to `[0, 1]`).
    pub metrics_flat: Vec<f64>,
    /// The confidence score `D(M*, S, G) ∈ [0, 1]`.
    pub confidence: f64,
    /// Iterations the ascent took.
    pub iterations: usize,
}

/// The GAT input of the disjoint union of `states`' graphs: their graph
/// feature rows stacked, and the CSR `(offsets, targets)` holding each
/// state's [`Topology::gat_adjacency`](edgesim::Topology::gat_adjacency)
/// rows in order, targets shifted by the nodes stacked before it.
pub(crate) fn graph_input<'a>(
    states: impl IntoIterator<Item = &'a SystemState>,
) -> (Matrix, Vec<usize>, Vec<usize>) {
    let (mut rows, mut offsets, mut targets) = (Vec::new(), vec![0], Vec::new());
    for s in states {
        let (o, t) = s.topology.gat_adjacency();
        let nodes = offsets.len() - 1;
        offsets.extend(o[1..].iter().map(|&end| end + targets.len()));
        targets.extend(t.iter().map(|&j| j + nodes));
        rows.extend_from_slice(s.graph_features.as_flattened());
    }
    let g = Matrix::from_vec(rows.len() / GRAPH_DIM, GRAPH_DIM, rows);
    (g, offsets, targets)
}

/// The composite discriminator of Fig. 3.
///
/// The model is `Clone`: batched candidate evaluation hands each worker
/// thread its own replica (parameters are frozen during scoring, so
/// replicas produce bit-identical results to the original). A replica
/// copies the parameters, not the tape of the model's last forward.
#[derive(Clone)]
pub struct GonModel {
    config: GonConfig,
    /// The `[M | S]` encoder of eq. 3, `ReLU(X·W + b)`, held as its two
    /// layers so the eq.-1 ascent can run on the dense weights directly.
    ms_dense: Dense,
    ms_relu: Activation,
    gat: GraphAttention,
    head: Sequential,
}

impl std::fmt::Debug for GonModel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "GonModel(hidden={}, head_layers={}, params={})",
            self.config.hidden,
            self.config.head_layers,
            self.param_count()
        )
    }
}

impl GonModel {
    /// Builds the network from a configuration.
    pub fn new(config: GonConfig) -> Self {
        let mut init = Initializer::new(config.seed);
        let ms_dense = Dense::new(METRIC_DIM + SCHED_DIM, config.hidden, &mut init);

        let gat = GraphAttention::new(GRAPH_DIM, config.gat_dim, config.gat_att, &mut init);

        let mut head = Sequential::new();
        let mut in_dim = config.hidden + config.gat_dim;
        for _ in 0..config.head_layers.saturating_sub(1) {
            head.push(Dense::new(in_dim, config.hidden, &mut init));
            head.push(Activation::tanh());
            in_dim = config.hidden;
        }
        head.push(Dense::new(in_dim, 1, &mut init));
        head.push(Activation::sigmoid());

        Self {
            config,
            ms_dense,
            ms_relu: Activation::relu(),
            gat,
            head,
        }
    }

    /// The configuration the model was built with.
    pub fn config(&self) -> &GonConfig {
        &self.config
    }

    /// Total scalar parameter count.
    pub fn param_count(&self) -> usize {
        self.ms_dense.param_count() + self.gat.param_count() + self.head.param_count()
    }

    /// All trainable parameters, for the optimizer.
    pub fn params_mut(&mut self) -> Vec<&mut Param> {
        let mut p = self.ms_dense.params_mut();
        p.extend(self.gat.params_mut());
        p.extend(self.head.params_mut());
        p
    }

    /// Zeroes all parameter gradients.
    pub fn zero_grad(&mut self) {
        for p in self.params_mut() {
            p.zero_grad();
        }
    }

    /// Assembles the `[M | S]` per-host input matrix from a state.
    fn ms_input(state: &SystemState) -> Matrix {
        let n = state.n_hosts();
        let mut x = Matrix::zeros(n, METRIC_DIM + SCHED_DIM);
        for h in 0..n {
            x.row_mut(h)[..METRIC_DIM].copy_from_slice(&state.metrics[h]);
            x.row_mut(h)[METRIC_DIM..].copy_from_slice(&state.schedule[h]);
        }
        x
    }

    /// Taped `[M | S]` encoder forward: `ReLU(X·W + b)`, recording what
    /// the encoder backward reads.
    fn encode(&mut self, x: &Matrix) -> Matrix {
        let z = self.ms_dense.forward(x);
        self.ms_relu.forward(&z)
    }

    /// Encoder backward after [`GonModel::encode`], accumulating the
    /// dense layer's parameter gradients per segment, in segment order.
    fn encoder_backward_batch(&mut self, g: &Matrix, segments: &[(usize, usize)]) -> Matrix {
        let g = self.ms_relu.backward_batch(g, segments);
        self.ms_dense.backward_batch(&g, segments)
    }

    /// Forward pass: `D(M, S, G; θ) ∈ [0, 1]`. This is the training
    /// forward: it records the tape [`GonModel::backward`] reads. To only
    /// read the score, use [`GonModel::confidence`].
    pub fn score(&mut self, state: &SystemState) -> f64 {
        let n = state.n_hosts() as f64;
        let x = Self::ms_input(state);
        let e = self.encode(&x); // [n × hidden]
        let e_ms = e.sum_rows().scale(1.0 / n); // mean-pool → [1 × hidden]

        let (g, offsets, targets) = graph_input([state]);
        let eg = self.gat.forward(&g, &offsets, &targets); // [n × gat_dim]
        let e_g = eg.sum_rows().scale(1.0 / n);

        let z = self.head.forward(&e_ms.hcat(&e_g));
        z[(0, 0)]
    }

    /// The confidence score `D(M, S, G; θ)` of `state` from a cache-free
    /// inference forward: bit-identical to [`GonModel::score`], but it
    /// records no tape and leaves the model untouched. CAROL scores every
    /// interval's state with this (Algorithm 2 line 11).
    ///
    /// Every layer runs its [`Layer::infer`] routine, the arithmetic its
    /// taped `forward` shares; both branches mean-pool in the same
    /// ascending-row chain, and the graph branch embeds through
    /// [`GraphAttention::pooled_embedding`] without a reference.
    pub fn confidence(&self, state: &SystemState) -> f64 {
        let n = state.n_hosts();
        let z = self.ms_dense.infer(&Self::ms_input(state));
        let e = self.ms_relu.infer(&z); // [n × hidden]
        let e_ms = Self::pool_segments(&e, &[(0, n)]);
        let mut e_g = Matrix::zeros(1, self.config.gat_dim);
        let (g, offsets, targets) = graph_input([state]);
        self.gat
            .pooled_embedding(None, &g, &offsets, &targets, e_g.row_mut(0));
        self.head.infer(&e_ms.hcat(&e_g))[(0, 0)]
    }

    /// Backward pass after [`GonModel::score`]: given `dL/dD`, accumulates
    /// parameter gradients and returns the gradient of the loss with
    /// respect to the *metric entries* of the input (`n_hosts ×
    /// METRIC_DIM`) — the tensor eq. 1 ascends.
    pub fn backward(&mut self, n_hosts: usize, grad_score: f64) -> Matrix {
        let n = n_hosts as f64;
        let g_head = self
            .head
            .backward(&Matrix::from_vec(1, 1, vec![grad_score]));
        let (g_ms_pooled, g_g_pooled) = g_head.hsplit(self.config.hidden);

        // Mean-pool backward: each host row receives grad / n.
        let mut g_ms = Matrix::zeros(n_hosts, self.config.hidden);
        let mut g_g = Matrix::zeros(n_hosts, self.config.gat_dim);
        for h in 0..n_hosts {
            for c in 0..self.config.hidden {
                g_ms[(h, c)] = g_ms_pooled[(0, c)] / n;
            }
            for c in 0..self.config.gat_dim {
                g_g[(h, c)] = g_g_pooled[(0, c)] / n;
            }
        }

        let dx = self.ms_dense.backward(&self.ms_relu.backward(&g_ms));
        let _dgraph = self.gat.backward(&g_g); // graph features are inputs too
        let (d_metrics, _d_sched) = dx.hsplit(METRIC_DIM);
        d_metrics
    }

    /// Like [`GonModel::backward`], but leaves parameter gradients exactly
    /// as they were: only the input-metric gradient is returned. Used when
    /// a generation pass must run *inside* a training step without
    /// polluting the accumulated parameter gradients (Algorithm 1 line 4).
    pub fn backward_discard(&mut self, n_hosts: usize, grad_score: f64) -> Matrix {
        let snapshot: Vec<Matrix> = self.params_mut().iter().map(|p| p.grad.clone()).collect();
        let d_metrics = self.backward(n_hosts, grad_score);
        for (p, saved) in self.params_mut().into_iter().zip(snapshot) {
            p.grad = saved;
        }
        d_metrics
    }

    /// Runs the generation loop of eq. 1: starting from the metrics in
    /// `state` (the paper warm-starts from `M_{t-1}`, §III-B), ascends
    /// `log D` over `M` with step size γ until convergence. Returns the
    /// converged metrics and confidence. Parameter gradients end zeroed.
    pub fn generate(&mut self, state: &SystemState) -> Generated {
        self.generate_impl(state, false)
    }

    /// [`GonModel::generate`] with **no parameter-gradient side effects**:
    /// the ascent takes the input-gradient-only backward and never calls
    /// `zero_grad`, so gradients accumulated before the call survive it
    /// bit-for-bit. Outputs are bit-identical to `generate` (the
    /// input-only backward is bit-identical by [`nn::Layer`] contract).
    /// This is what adversarial training uses to converge fake samples
    /// *inside* a minibatch without disturbing the real-sample gradients
    /// already accumulated (Algorithm 1 lines 3–4), and what
    /// side-effect-free evaluation is built on.
    pub fn generate_nograd(&mut self, state: &SystemState) -> Generated {
        self.generate_impl(state, true)
    }

    fn generate_impl(&mut self, state: &SystemState, preserve_grads: bool) -> Generated {
        // One-candidate batch. Bit-identical by the `generate_batch`
        // contract (gated in this file's tests and the determinism suite)
        // and inherits its structural savings: the step-invariant graph
        // branch runs once per query instead of once per ascent step, and
        // the input-only backward skips the parameter-gradient work the
        // old per-step `zero_grad` + full backward paid.
        self.generate_batch_impl(std::slice::from_ref(state), None, preserve_grads)
            .pop()
            .expect("one candidate in, one result out")
    }

    /// Predicts the QoS objective `O(M*) = α·q_energy + β·q_slo` (eq. 6–7)
    /// for a *candidate topology*, by generating `M*` under that topology
    /// and summing its energy and SLO columns. Returns
    /// `(objective, confidence)`; lower objective is better.
    pub fn predict_qos(&mut self, state: &SystemState, alpha: f64, beta: f64) -> (f64, f64) {
        let generated = self.generate(state);
        let (q_energy, q_slo) = SystemState::qos_components_flat(&generated.metrics_flat);
        (alpha * q_energy + beta * q_slo, generated.confidence)
    }

    // --- Batched evaluation -------------------------------------------
    //
    // Tabu search scores whole candidate neighbourhoods at once, so the
    // batch entry points below stack every candidate's per-host rows into
    // one matrix: each network layer then runs one blocked matmul per
    // *batch* instead of per candidate, and the GAT sees the disjoint
    // union of the candidate graphs ([`graph_input`]: CSR rows stacked,
    // targets offset per candidate), which it evaluates block-by-block
    // bit-identically to separate forwards. Everything here is
    // bit-identical to mapping the serial sibling over the batch —
    // `tests/properties.rs` and the determinism suite gate that contract.

    /// The `(row offset, n_hosts)` segment of each state in the stacked
    /// row layout of [`GonModel::stacked_ms`] and [`graph_input`].
    fn segments(states: &[&SystemState]) -> Vec<(usize, usize)> {
        let mut offset = 0;
        states
            .iter()
            .map(|s| {
                let segment = (offset, s.n_hosts());
                offset += s.n_hosts();
                segment
            })
            .collect()
    }

    /// Stacks the `[M | S]` rows of all states into one matrix.
    fn stacked_ms(states: &[&SystemState]) -> Matrix {
        let total: usize = states.iter().map(|s| s.n_hosts()).sum();
        let mut x = Matrix::zeros(total, METRIC_DIM + SCHED_DIM);
        let mut offset = 0;
        for s in states {
            for h in 0..s.n_hosts() {
                x.row_mut(offset + h)[..METRIC_DIM].copy_from_slice(&s.metrics[h]);
                x.row_mut(offset + h)[METRIC_DIM..].copy_from_slice(&s.schedule[h]);
            }
            offset += s.n_hosts();
        }
        x
    }

    /// Pooled GAT embeddings (`B × gat_dim`) of a batch: from one forward
    /// over the stacked disjoint union, or — given a reference — one
    /// incremental [`GraphAttention::pooled_embedding`] per state. Both
    /// are bitwise equal.
    fn graph_embeddings(
        &mut self,
        states: &[&SystemState],
        segments: &[(usize, usize)],
        reference: Option<&GatReference>,
    ) -> Matrix {
        match reference {
            Some(reference) => {
                let mut e_g = Matrix::zeros(states.len(), self.config.gat_dim);
                for (i, &s) in states.iter().enumerate() {
                    let (g, offsets, targets) = graph_input([s]);
                    let row = e_g.row_mut(i);
                    self.gat
                        .pooled_embedding(Some(reference), &g, &offsets, &targets, row);
                }
                e_g
            }
            None => {
                let (g, offsets, targets) = graph_input(states.iter().copied());
                let eg = self.gat.forward(&g, &offsets, &targets); // [Σn × gat_dim]
                Self::pool_segments(&eg, segments)
            }
        }
    }

    /// Per-segment mean-pool, mirroring the serial
    /// `sum_rows().scale(1.0 / n)` chain exactly: ascending-row
    /// accumulation per column, then one multiply by the precomputed
    /// reciprocal — so each pooled row is bit-identical to the serial
    /// forward's.
    fn pool_segments(m: &Matrix, segments: &[(usize, usize)]) -> Matrix {
        let mut out = Matrix::zeros(segments.len(), m.cols());
        for (b, &(offset, n)) in segments.iter().enumerate() {
            for r in offset..offset + n {
                kernel::add_assign(out.row_mut(b), m.row(r));
            }
            kernel::scale_assign(out.row_mut(b), 1.0 / n as f64);
        }
        out
    }

    /// Batched forward over state refs; returns the `B × 1` score column
    /// and the row segments (needed by the batched backward).
    fn forward_batch_internal(&mut self, states: &[&SystemState]) -> (Matrix, Vec<(usize, usize)>) {
        let x = Self::stacked_ms(states);
        let segments = Self::segments(states);
        let e = self.encode(&x); // [Σn × hidden]
        let e_ms = Self::pool_segments(&e, &segments); // [B × hidden]
        let e_g = self.graph_embeddings(states, &segments, None);
        let z = self.head.forward(&e_ms.hcat(&e_g)); // [B × 1]
        (z, segments)
    }

    /// Batched [`GonModel::score`]: `D(M, S, G)` for every state, one
    /// stacked forward. Bit-identical to mapping `score` over the batch.
    pub fn score_batch(&mut self, states: &[SystemState]) -> Vec<f64> {
        if states.is_empty() {
            return Vec::new();
        }
        let refs: Vec<&SystemState> = states.iter().collect();
        self.forward_batch_internal(&refs).0.into_vec()
    }

    /// Batched [`GonModel::generate`]: runs every candidate's eq.-1 ascent
    /// in lock-step, with per-candidate convergence. Candidates that
    /// overshoot or plateau drop out of the ascent (their recorded best is
    /// frozen); the rest keep ascending on stacked matrices. Bit-identical
    /// to mapping `generate` over the batch: per-candidate trajectories
    /// are row-independent through every layer.
    ///
    /// Structural savings over a per-step taped forward/backward, all
    /// bit-neutral: the graph branch (GAT + pool) sees only graph
    /// features and adjacency — constant across eq.-1 steps — so its
    /// pooled embedding is computed **once per batch** instead of once
    /// per step per candidate; and each step runs fused over buffers
    /// allocated once per call — one encoder forward + pool pass, and a
    /// backward that computes only the metric columns — with only the
    /// metric columns of the stacked `[M | S]` input rewritten between
    /// steps.
    pub fn generate_batch(&mut self, states: &[SystemState]) -> Vec<Generated> {
        self.generate_batch_impl(states, None, false)
    }

    /// The GAT reference of `state` (see [`GatReference`]) under the
    /// current weights, for [`GonModel::generate_batch_against`]. Stale
    /// once the weights change.
    pub fn gat_reference(&self, state: &SystemState) -> GatReference {
        let (g, offsets, targets) = graph_input([state]);
        self.gat.reference(&g, &offsets, &targets)
    }

    /// [`GonModel::generate_batch`] with each candidate's graph embedded
    /// incrementally against `reference` (built by
    /// [`GonModel::gat_reference`] from a state the candidates differ
    /// from in a few hosts) instead of by a full GAT forward. Bit-identical
    /// to `generate_batch`; this is the repair search's scoring path.
    pub fn generate_batch_against(
        &mut self,
        states: &[SystemState],
        reference: &GatReference,
    ) -> Vec<Generated> {
        self.generate_batch_impl(states, Some(reference), false)
    }

    /// [`GonModel::generate_batch`] with **no parameter-gradient side
    /// effects**: identical outputs (the batched ascent already takes the
    /// input-gradient-only backward), but the final `zero_grad` is
    /// skipped, so gradients accumulated before the call survive it
    /// bit-for-bit. Side-effect-free evaluation during training runs on
    /// this.
    pub fn generate_batch_nograd(&mut self, states: &[SystemState]) -> Vec<Generated> {
        self.generate_batch_impl(states, None, true)
    }

    fn generate_batch_impl(
        &mut self,
        states: &[SystemState],
        reference: Option<&GatReference>,
        preserve_grads: bool,
    ) -> Vec<Generated> {
        let b = states.len();
        if b == 0 {
            return Vec::new();
        }
        let refs: Vec<&SystemState> = states.iter().collect();
        let segments = Self::segments(&refs);
        // Constant across steps.
        let e_g = self.graph_embeddings(&refs, &segments, reference);
        let mut ascent = Ascent::new(self, &refs, &e_g);

        let mut flats: Vec<Vec<f64>> = states.iter().map(|s| s.metrics_flat()).collect();
        let mut outs: Vec<Generated> = flats
            .iter()
            .map(|f| Generated {
                metrics_flat: f.clone(),
                confidence: f64::NEG_INFINITY,
                iterations: 0,
            })
            .collect();
        let mut prev = vec![f64::NEG_INFINITY; b];
        let mut active = vec![true; b];
        let mut n_active = b;
        // Step-size-invariant tolerance, exactly as in `generate`.
        let tol = self.config.gen_tol * (self.config.gen_lr / 1e-3).max(1e-6);

        for it in 0..self.config.gen_steps {
            if n_active == 0 {
                break;
            }
            let scores = self.ascent_scores(&mut ascent, &segments, &active); // [B × 1]

            let mut grads = vec![0.0; b];
            for i in 0..b {
                if !active[i] {
                    continue;
                }
                let score = scores[(i, 0)];
                if score > outs[i].confidence {
                    outs[i].confidence = score;
                    outs[i].metrics_flat = flats[i].clone();
                }
                outs[i].iterations = it + 1;
                // Same stop conditions as the serial loop: overshoot
                // first, then plateau.
                let overshoot = score < prev[i];
                let plateaued = it > 0 && score - prev[i] < tol;
                if overshoot || plateaued {
                    active[i] = false;
                    n_active -= 1;
                } else {
                    prev[i] = score;
                    // ∇_M log D = (1/D) ∇_M D.
                    grads[i] = 1.0 / score.max(1e-9);
                }
            }
            if n_active == 0 {
                break; // every remaining candidate stopped this step
            }
            self.ascent_metric_grads(&mut ascent, &segments, &grads, &active);
            for i in 0..b {
                if !active[i] {
                    continue;
                }
                let (offset, n) = segments[i];
                let flat = &mut flats[i];
                // The candidate's gradient rows are contiguous (METRIC_DIM
                // columns), so the whole eq.-1 step + clamp is one
                // elementwise kernel call.
                kernel::ascent_update(
                    flat,
                    &ascent.d[offset * METRIC_DIM..(offset + n) * METRIC_DIM],
                    self.config.gen_lr,
                );
                for h in 0..n {
                    // Refresh the metric columns of the stacked input.
                    ascent.x.row_mut(offset + h)[..METRIC_DIM]
                        .copy_from_slice(&flat[h * METRIC_DIM..(h + 1) * METRIC_DIM]);
                }
            }
        }

        // gen_steps == 0 (or a candidate whose every score was NaN):
        // score the current metrics, as `generate` does in its fallback.
        let unscored: Vec<bool> = outs
            .iter()
            .map(|o| o.confidence == f64::NEG_INFINITY)
            .collect();
        if unscored.contains(&true) {
            let scores = self.ascent_scores(&mut ascent, &segments, &unscored);
            for (i, out) in outs.iter_mut().enumerate() {
                if unscored[i] {
                    out.confidence = scores[(i, 0)];
                }
            }
        }
        // Leave the model in the same visible state as `generate`:
        // parameter gradients zeroed (unless the caller asked for the
        // grad-preserving variant).
        if !preserve_grads {
            self.zero_grad();
        }
        outs
    }

    /// One eq.-1 forward over the ascent buffers: returns the `B × 1`
    /// scores, of which only the rows of `live` candidates are fresh.
    ///
    /// Per live candidate, the encoder pre-activations `Z = X·W + b` are
    /// written into the reused `z` rows by the kernel
    /// [`Matrix::matmul`] runs, and each row is bias-added, rectified and
    /// pooled in one pass — the ascending-row chain of
    /// [`GonModel::pool_segments`], then one multiply by `1/n`. So every
    /// pooled row is bitwise what the taped `encode` + pool produces.
    /// Stopped candidates' rows are skipped: no live row reads them. The
    /// head runs taped over all `B` rows, for
    /// [`GonModel::ascent_metric_grads`].
    fn ascent_scores(
        &mut self,
        ascent: &mut Ascent,
        segments: &[(usize, usize)],
        live: &[bool],
    ) -> Matrix {
        let hidden = self.config.hidden;
        let in_dim = METRIC_DIM + SCHED_DIM;
        let (w, bias) = (self.ms_dense.weight().data(), self.ms_dense.bias().data());
        for (b, &(offset, n)) in segments.iter().enumerate() {
            if !live[b] {
                continue;
            }
            let z = &mut ascent.z[offset * hidden..(offset + n) * hidden];
            z.fill(0.0);
            let x = &ascent.x.data()[offset * in_dim..(offset + n) * in_dim];
            kernel::matmul_into(z, x, w, n, in_dim, hidden);
            let pooled = &mut ascent.head_in.row_mut(b)[..hidden];
            pooled.fill(0.0);
            for z_row in z.chunks_exact_mut(hidden) {
                kernel::add_assign(z_row, bias);
                for (p, &v) in pooled.iter_mut().zip(z_row.iter()) {
                    *p += ActivationKind::Relu.apply(v);
                }
            }
            kernel::scale_assign(pooled, 1.0 / n as f64);
        }
        self.head.forward(&ascent.head_in)
    }

    /// The metric gradient of the last [`GonModel::ascent_scores`], into
    /// `ascent.d` for the `live` candidates, given `dL/dD` per candidate.
    /// Parameter gradients are left untouched.
    ///
    /// The taped backward computes `dX = (G ∘ relu'(Z))·Wᵀ` with
    /// `G[h, j] = gp[j] = g_head[b, j] / n`, and keeps the metric columns.
    /// Each kept element is the matmul kernel's chain
    /// `d[h, k] = Σ_j (ascending, a ≠ 0) a·Wᵀ[j, k]` with
    /// `a = gp[j]·relu'(z[h, j])`. Only the `METRIC_DIM` columns are
    /// computed here, and `a` takes one of two values per `j`: `gp[j]`
    /// exactly where relu' = 1, and `gp[j]·0.0` (±0, or NaN for a
    /// non-finite `gp[j]`) otherwise. So both candidate rows
    /// `a·Wᵀ[j, ·]` are built once per candidate, with `+0.0` where the
    /// kernel's zero-skip drops `a`. Adding `+0.0` is the same as
    /// skipping: the chain starts at `+0.0` and, rounding to nearest, can
    /// never reach `-0.0`, the one value `+0.0` would change.
    fn ascent_metric_grads(
        &mut self,
        ascent: &mut Ascent,
        segments: &[(usize, usize)],
        grad_scores: &[f64],
        live: &[bool],
    ) {
        let hidden = self.config.hidden;
        let g = Matrix::from_vec(grad_scores.len(), 1, grad_scores.to_vec());
        let g_head = self.head.backward_input(&g); // [B × hidden + gat_dim]
        for (b, &(offset, n)) in segments.iter().enumerate() {
            if !live[b] {
                continue;
            }
            let nf = n as f64;
            let candidate_rows = ascent.rows.chunks_exact_mut(2 * METRIC_DIM);
            for ((rows, wt), &g_pooled) in candidate_rows
                .zip(ascent.wt_m.chunks_exact(METRIC_DIM))
                .zip(&g_head.row(b)[..hidden])
            {
                let gp = g_pooled / nf;
                let (off, on) = rows.split_at_mut(METRIC_DIM);
                scaled_row(off, gp * 0.0, wt);
                scaled_row(on, gp, wt);
            }
            let z = &ascent.z[offset * hidden..(offset + n) * hidden];
            let d = &mut ascent.d[offset * METRIC_DIM..(offset + n) * METRIC_DIM];
            let mut z_blocks = z.chunks_exact(4 * hidden);
            let mut d_blocks = d.chunks_exact_mut(4 * METRIC_DIM);
            for (z4, d4) in (&mut z_blocks).zip(&mut d_blocks) {
                metric_grad_rows::<4>(z4, &ascent.rows, d4);
            }
            let (z_rest, d_rest) = (z_blocks.remainder(), d_blocks.into_remainder());
            for (z1, d1) in z_rest
                .chunks_exact(hidden)
                .zip(d_rest.chunks_exact_mut(METRIC_DIM))
            {
                metric_grad_rows::<1>(z1, &ascent.rows, d1);
            }
        }
    }

    /// Batched [`GonModel::backward`] after a batched forward: given one
    /// `dL/dD` per stacked segment, accumulates parameter gradients **per
    /// segment, in segment order** (via [`nn::Layer::backward_batch`] and
    /// the GAT's block-diagonal sibling) and returns the stacked
    /// `Σn × METRIC_DIM` input-metric gradient. Bit-identical — losses,
    /// parameter gradients and input gradients — to running `score` +
    /// `backward` once per segment in order: a single stacked `Xᵀ·dY`
    /// would chain the f64 reductions across segment boundaries, so the
    /// parameter accumulation deliberately stays per-segment while every
    /// row-independent product (forwards, `dY·Wᵀ`) runs stacked.
    pub fn backward_batch(&mut self, segments: &[(usize, usize)], grad_scores: &[f64]) -> Matrix {
        debug_assert_eq!(segments.len(), grad_scores.len());
        let b = segments.len();
        let g = Matrix::from_vec(b, 1, grad_scores.to_vec());
        // The head sees one pooled row per segment.
        let head_segments: Vec<(usize, usize)> = (0..b).map(|i| (i, 1)).collect();
        let g_head = self.head.backward_batch(&g, &head_segments);
        let (g_ms_pooled, g_g_pooled) = g_head.hsplit(self.config.hidden);

        // Mean-pool backward: each host row of segment b gets grad / n.
        let total: usize = segments.iter().map(|&(_, n)| n).sum();
        let mut g_ms = Matrix::zeros(total, self.config.hidden);
        let mut g_g = Matrix::zeros(total, self.config.gat_dim);
        for (b, &(offset, n)) in segments.iter().enumerate() {
            let nf = n as f64;
            for h in 0..n {
                for c in 0..self.config.hidden {
                    g_ms[(offset + h, c)] = g_ms_pooled[(b, c)] / nf;
                }
                for c in 0..self.config.gat_dim {
                    g_g[(offset + h, c)] = g_g_pooled[(b, c)] / nf;
                }
            }
        }

        let dx = self.encoder_backward_batch(&g_ms, segments);
        let _dgraph = self.gat.backward_batch(&g_g, segments); // graph features are inputs too
        let (d_metrics, _d_sched) = dx.hsplit(METRIC_DIM);
        d_metrics
    }

    /// Fake-ascent chunk size for [`GonModel::adversarial_step_batch`]:
    /// matches the repair engine's 16-candidate batches — small enough
    /// that chunks outnumber workers, large enough that the blocked
    /// matmul amortises.
    const TRAIN_GEN_CHUNK: usize = 16;

    /// One batched adversarial update (Algorithm 1 lines 3–6) over a
    /// whole minibatch: returns the per-sample BCE losses
    /// (`−log D(real) − log(1 − D(fake))`) and accumulates the summed
    /// parameter gradients into the model.
    ///
    /// Three stages, each batch-first:
    ///
    /// 1. **Fake convergence** — every sample's noise-initialised metrics
    ///    run the configured eq.-1 ascent via the masked batched engine
    ///    ([`GonModel::generate_batch`]), chunked
    ///    (fixed 16-sample chunks) and fanned out over
    ///    [`par::par_map_threads`] worker threads holding model clones.
    ///    The ascent is parameter-gradient-free, chunk boundaries are a
    ///    pure function of the minibatch, and results land in input-index
    ///    slots — so the fakes are bit-identical at any worker count.
    /// 2. **One stacked discriminator pass with a shared graph branch** —
    ///    real and fake states interleave (`[real₀, fake₀, real₁, fake₁,
    ///    …]`) into a single forward: one blocked matmul per layer for the
    ///    whole minibatch. Each fake is its real twin with only the
    ///    metrics replaced, so graph features and adjacency — the only
    ///    GAT inputs — are identical between the halves: the GAT runs
    ///    over the `B` real components **once** and its pooled embedding
    ///    rows are duplicated to both halves, bitwise equal to pooling
    ///    the fake segments separately. This halves the GAT cost of every
    ///    training step.
    /// 3. **One in-order gradient reduction** — the head and `[M | S]`
    ///    encoder accumulate each segment's parameter gradients in that
    ///    interleaved order via [`nn::Layer::backward_batch`], and the
    ///    GAT backpropagates both halves against its single shared cache
    ///    ([`GraphAttention::backward_interleaved`]) — exactly the
    ///    real/fake alternation the serial per-sample step produces.
    ///
    /// Bit-identity contract: equal to mapping the serial adversarial
    /// step (`gon::training`) over the minibatch — same losses, same
    /// accumulated gradients, same RNG stream consumption (noise is drawn
    /// per sample in minibatch order; the ascent draws nothing).
    /// `tests/properties.rs` property-tests this for batch sizes
    /// including 0 and 1.
    pub fn adversarial_step_batch(
        &mut self,
        states: &[&SystemState],
        rng: &mut StdRng,
        threads: usize,
    ) -> Vec<f64> {
        if states.is_empty() {
            return Vec::new();
        }
        const EPS: f64 = 1e-9;

        // Stage 1: noise-initialise every fake in minibatch order (the
        // serial step's RNG stream), then converge them all through the
        // batched eq.-1 ascent on per-worker model clones.
        let mut fakes: Vec<SystemState> = states
            .iter()
            .map(|s| {
                let mut fake = (*s).clone();
                let noise: Vec<f64> = (0..fake.n_hosts() * METRIC_DIM)
                    .map(|_| rng.gen_range(0.0..1.0))
                    .collect();
                fake.set_metrics_flat(&noise);
                fake
            })
            .collect();
        let chunks: Vec<&[SystemState]> = fakes.chunks(Self::TRAIN_GEN_CHUNK).collect();
        let this: &Self = self;
        let generated: Vec<Generated> = par::par_map_threads(threads, &chunks, |chunk| {
            let mut model = this.clone();
            model.generate_batch(chunk)
        })
        .into_iter()
        .flatten()
        .collect();
        for (fake, gen) in fakes.iter_mut().zip(&generated) {
            fake.set_metrics_flat(&gen.metrics_flat);
        }

        // Stage 2: one stacked forward over [real₀, fake₀, real₁, …],
        // sharing the graph branch between the halves. fake_b is real_b
        // with only the metrics replaced, so the GAT — a pure function of
        // graph features and adjacency — runs over the B real components
        // once; its pooled rows are bitwise equal to the fake segments'.
        let real_segments = Self::segments(states);
        let e_g_real = self.graph_embeddings(states, &real_segments, None); // [B × gat_dim]
        let mut e_g = Matrix::zeros(2 * states.len(), self.config.gat_dim);
        for i in 0..states.len() {
            e_g.row_mut(2 * i).copy_from_slice(e_g_real.row(i));
            e_g.row_mut(2 * i + 1).copy_from_slice(e_g_real.row(i));
        }

        let mut combined: Vec<&SystemState> = Vec::with_capacity(2 * states.len());
        for (real, fake) in states.iter().zip(&fakes) {
            combined.push(real);
            combined.push(fake);
        }
        let x = Self::stacked_ms(&combined);
        let segments = Self::segments(&combined);
        let e = self.encode(&x); // [Σ2n × hidden]
        let e_ms = Self::pool_segments(&e, &segments); // [2B × hidden]
        let scores = self.head.forward(&e_ms.hcat(&e_g)); // [2B × 1]

        // Stage 3: per-segment dL/dD — ascend log D on reals, descend
        // log(1 − D) on fakes — then one in-order gradient reduction.
        let mut grads = vec![0.0; combined.len()];
        let mut losses = Vec::with_capacity(states.len());
        for b in 0..states.len() {
            let z_real = scores[(2 * b, 0)].clamp(EPS, 1.0 - EPS);
            let z_fake = scores[(2 * b + 1, 0)].clamp(EPS, 1.0 - EPS);
            grads[2 * b] = -1.0 / z_real;
            grads[2 * b + 1] = 1.0 / (1.0 - z_fake);
            let loss_real = -z_real.ln();
            let loss_fake = -(1.0 - z_fake).ln();
            losses.push(loss_real + loss_fake);
        }

        // Mirror `backward_batch`, except the GAT half backpropagates
        // both grad halves against its single shared (real-only) cache.
        let g = Matrix::from_vec(combined.len(), 1, grads);
        let head_segments: Vec<(usize, usize)> = (0..combined.len()).map(|i| (i, 1)).collect();
        let g_head = self.head.backward_batch(&g, &head_segments);
        let (g_ms_pooled, g_g_pooled) = g_head.hsplit(self.config.hidden);

        // Mean-pool backward over the combined segments: because the
        // stacking interleaves per component, real_b's rows start at
        // twice its cache offset — exactly the [real₀, fake₀, …] grad
        // layout `backward_interleaved` expects.
        let total: usize = segments.iter().map(|&(_, n)| n).sum();
        let mut g_ms = Matrix::zeros(total, self.config.hidden);
        let mut g_g = Matrix::zeros(total, self.config.gat_dim);
        for (b, &(offset, n)) in segments.iter().enumerate() {
            let nf = n as f64;
            for h in 0..n {
                for c in 0..self.config.hidden {
                    g_ms[(offset + h, c)] = g_ms_pooled[(b, c)] / nf;
                }
                for c in 0..self.config.gat_dim {
                    g_g[(offset + h, c)] = g_g_pooled[(b, c)] / nf;
                }
            }
        }
        self.encoder_backward_batch(&g_ms, &segments);
        self.gat.backward_interleaved(&g_g, &real_segments);
        losses
    }

    /// Batched [`GonModel::predict_qos`] over candidate states: generates
    /// `M*` for the whole batch and reads each candidate's objective
    /// columns off it. Bit-identical to mapping `predict_qos`.
    pub fn predict_qos_batch(
        &mut self,
        states: &[SystemState],
        alpha: f64,
        beta: f64,
    ) -> Vec<(f64, f64)> {
        self.generate_batch(states)
            .into_iter()
            .map(|gen| {
                let (q_energy, q_slo) = SystemState::qos_components_flat(&gen.metrics_flat);
                (alpha * q_energy + beta * q_slo, gen.confidence)
            })
            .collect()
    }
}

/// The buffers of one batched eq.-1 ascent, allocated once per
/// [`GonModel::generate_batch`]-family call and rewritten in place by
/// every step.
struct Ascent {
    /// Stacked `[M | S]` input rows (`Σn × (METRIC_DIM + SCHED_DIM)`);
    /// only the metric columns change between steps.
    x: Matrix,
    /// Encoder pre-activations `X·W + b` (`Σn × hidden`, row-major).
    z: Vec<f64>,
    /// Head input (`B × (hidden + gat_dim)`): each candidate's pooled
    /// encoder row, then its step-invariant pooled graph embedding.
    head_in: Matrix,
    /// The metric columns of the encoder's `Wᵀ` (`hidden × METRIC_DIM`).
    wt_m: Vec<f64>,
    /// Per hidden unit `j`, the two rows a host row can add to its metric
    /// gradient — for relu' = 0, then relu' = 1 (`hidden × 2·METRIC_DIM`);
    /// rebuilt per candidate.
    rows: Vec<f64>,
    /// Metric gradient rows (`Σn × METRIC_DIM`).
    d: Vec<f64>,
}

impl Ascent {
    fn new(model: &GonModel, states: &[&SystemState], e_g: &Matrix) -> Self {
        let hidden = model.config.hidden;
        let total: usize = states.iter().map(|s| s.n_hosts()).sum();
        let mut head_in = Matrix::zeros(states.len(), hidden + model.config.gat_dim);
        for b in 0..states.len() {
            head_in.row_mut(b)[hidden..].copy_from_slice(e_g.row(b));
        }
        let w = model.ms_dense.weight();
        let mut wt_m = vec![0.0; hidden * METRIC_DIM];
        for (j, wt_row) in wt_m.chunks_exact_mut(METRIC_DIM).enumerate() {
            for (k, v) in wt_row.iter_mut().enumerate() {
                *v = w[(k, j)];
            }
        }
        Self {
            x: GonModel::stacked_ms(states),
            z: vec![0.0; total * hidden],
            head_in,
            wt_m,
            rows: vec![0.0; hidden * 2 * METRIC_DIM],
            d: vec![0.0; total * METRIC_DIM],
        }
    }
}

/// `out = a·wt`, or `+0.0` throughout where the matmul kernel's
/// zero-skip would drop `a`.
fn scaled_row(out: &mut [f64], a: f64, wt: &[f64]) {
    for (o, &w) in out.iter_mut().zip(wt) {
        *o = if a == 0.0 { 0.0 } else { a * w };
    }
}

/// Metric gradient rows of `R` host rows at once (see
/// [`GonModel::ascent_metric_grads`]): `d[r][k] = Σ_j rows[j][relu'(z[r][j])][k]`,
/// each element one ascending-`j` chain from `+0.0`. The `R` rows'
/// chains are independent, which hides the add latency.
fn metric_grad_rows<const R: usize>(z: &[f64], rows: &[f64], d: &mut [f64]) {
    let hidden = z.len() / R;
    let mut acc = [[0.0f64; METRIC_DIM]; R];
    for j in 0..hidden {
        for (r, acc_r) in acc.iter_mut().enumerate() {
            let on = usize::from(z[r * hidden + j] > 0.0);
            let src = &rows[(2 * j + on) * METRIC_DIM..(2 * j + on + 1) * METRIC_DIM];
            for (a, &v) in acc_r.iter_mut().zip(src) {
                *a += v;
            }
        }
    }
    for (d_row, acc_r) in d.chunks_exact_mut(METRIC_DIM).zip(&acc) {
        d_row.copy_from_slice(acc_r);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use edgesim::scheduler::SchedulingDecision;
    use edgesim::state::Normalizer;
    use edgesim::{HostSpec, HostState, Topology};
    use nn::gradcheck::{max_abs_diff, numerical_grad};

    fn test_state(n_hosts: usize, n_brokers: usize, load: f64) -> SystemState {
        let topo = Topology::balanced(n_hosts, n_brokers).unwrap();
        let specs: Vec<HostSpec> = (0..n_hosts).map(HostSpec::rpi4gb).collect();
        let mut states = vec![HostState::default(); n_hosts];
        for (i, st) in states.iter_mut().enumerate() {
            st.cpu = (load + 0.05 * i as f64).min(1.0);
            st.ram = (load * 0.8).min(1.0);
            st.energy_wh = 0.3 * load;
        }
        SystemState::capture(
            &topo,
            &specs,
            &states,
            &[],
            &SchedulingDecision::new(),
            &Normalizer::default(),
        )
    }

    fn small_config() -> GonConfig {
        GonConfig {
            hidden: 16,
            head_layers: 2,
            gat_dim: 8,
            gat_att: 4,
            gen_lr: 1e-2,
            gen_steps: 20,
            gen_tol: 1e-7,
            seed: 3,
        }
    }

    #[test]
    fn score_is_a_probability() {
        let mut model = GonModel::new(small_config());
        for load in [0.0, 0.3, 0.9] {
            let s = test_state(8, 2, load);
            let z = model.score(&s);
            assert!((0.0..=1.0).contains(&z), "score {z} out of range");
        }
    }

    #[test]
    fn same_weights_serve_different_host_counts() {
        let mut model = GonModel::new(small_config());
        let a = model.score(&test_state(4, 1, 0.4));
        let b = model.score(&test_state(16, 4, 0.4));
        assert!(a.is_finite() && b.is_finite());
    }

    #[test]
    fn metric_gradient_matches_numerical() {
        let mut model = GonModel::new(small_config());
        let state = test_state(4, 2, 0.5);
        let score = model.score(&state);
        model.zero_grad();
        let analytic = model.backward(4, 1.0);
        let _ = score;

        let numeric = numerical_grad(
            &Matrix::from_vec(4, METRIC_DIM, state.metrics_flat()),
            1e-6,
            |probe| {
                let mut s = state.clone();
                s.set_metrics_flat(probe.data());
                model.score(&s)
            },
        );
        assert!(
            max_abs_diff(&analytic, &numeric) < 1e-6,
            "metric gradient mismatch"
        );
    }

    #[test]
    fn generation_increases_score() {
        let mut model = GonModel::new(small_config());
        let state = test_state(6, 2, 0.5);
        let before = model.score(&state);
        let generated = model.generate(&state);
        assert!(
            generated.confidence >= before - 1e-9,
            "ascent must not reduce the score: {before} → {}",
            generated.confidence
        );
        assert!(generated.iterations >= 1);
        assert!(generated
            .metrics_flat
            .iter()
            .all(|&v| (0.0..=1.0).contains(&v)));
    }

    #[test]
    fn generation_preserves_shape() {
        let mut model = GonModel::new(small_config());
        let state = test_state(8, 2, 0.4);
        let generated = model.generate(&state);
        assert_eq!(generated.metrics_flat.len(), 8 * METRIC_DIM);
    }

    #[test]
    fn predict_qos_blends_energy_and_slo() {
        let mut model = GonModel::new(small_config());
        let state = test_state(6, 2, 0.5);
        let (q_energy_only, _) = model.predict_qos(&state, 1.0, 0.0);
        let (q_slo_only, _) = model.predict_qos(&state, 0.0, 1.0);
        let (q_mix, conf) = model.predict_qos(&state, 0.5, 0.5);
        assert!((q_mix - 0.5 * (q_energy_only + q_slo_only)).abs() < 1e-6);
        assert!((0.0..=1.0).contains(&conf));
    }

    fn mixed_batch() -> Vec<SystemState> {
        vec![
            test_state(8, 2, 0.1),
            test_state(8, 2, 0.55),
            test_state(4, 2, 0.9),
            test_state(6, 2, 0.35),
        ]
    }

    #[test]
    fn score_batch_is_bit_identical_to_mapped_score() {
        let mut model = GonModel::new(small_config());
        let states = mixed_batch();
        let serial: Vec<f64> = states.iter().map(|s| model.score(s)).collect();
        let batched = model.score_batch(&states);
        assert_eq!(batched.len(), states.len());
        for (i, (a, b)) in serial.iter().zip(&batched).enumerate() {
            assert_eq!(a.to_bits(), b.to_bits(), "candidate {i} diverged");
        }
        // Degenerate batch sizes.
        assert!(model.score_batch(&[]).is_empty());
        let one = model.score_batch(&states[..1]);
        assert_eq!(one[0].to_bits(), serial[0].to_bits());
    }

    #[test]
    fn generate_batch_is_bit_identical_to_mapped_generate() {
        // gen_lr large enough that candidates overshoot/plateau at
        // *different* steps — the per-candidate convergence masks must
        // reproduce every serial trajectory exactly.
        let mut model = GonModel::new(small_config());
        let states = mixed_batch();
        let serial: Vec<Generated> = states.iter().map(|s| model.generate(s)).collect();
        let batched = model.generate_batch(&states);
        assert_eq!(batched.len(), serial.len());
        for (i, (a, b)) in serial.iter().zip(&batched).enumerate() {
            assert_eq!(
                a.confidence.to_bits(),
                b.confidence.to_bits(),
                "candidate {i}: confidence diverged ({} vs {})",
                a.confidence,
                b.confidence
            );
            assert_eq!(a.iterations, b.iterations, "candidate {i}: iterations");
            assert_eq!(a.metrics_flat.len(), b.metrics_flat.len());
            for (x, y) in a.metrics_flat.iter().zip(&b.metrics_flat) {
                assert_eq!(x.to_bits(), y.to_bits(), "candidate {i}: metrics diverged");
            }
        }
        // Parameter gradients end zeroed, as after serial `generate`.
        for p in model.params_mut() {
            assert!(p.grad.data().iter().all(|&g| g == 0.0));
        }
    }

    #[test]
    fn generate_batch_zero_steps_matches_serial_fallback() {
        let config = GonConfig {
            gen_steps: 0,
            ..small_config()
        };
        let mut model = GonModel::new(config);
        let states = mixed_batch();
        let serial: Vec<Generated> = states.iter().map(|s| model.generate(s)).collect();
        let batched = model.generate_batch(&states);
        for (a, b) in serial.iter().zip(&batched) {
            assert_eq!(a.confidence.to_bits(), b.confidence.to_bits());
            assert_eq!(a.metrics_flat, b.metrics_flat);
        }
    }

    #[test]
    fn predict_qos_batch_matches_mapped_predict_qos() {
        let mut model = GonModel::new(small_config());
        let states = mixed_batch();
        let serial: Vec<(f64, f64)> = states
            .iter()
            .map(|s| model.predict_qos(s, 0.5, 0.5))
            .collect();
        let batched = model.predict_qos_batch(&states, 0.5, 0.5);
        for ((aq, ac), (bq, bc)) in serial.iter().zip(&batched) {
            assert_eq!(aq.to_bits(), bq.to_bits(), "objective diverged");
            assert_eq!(ac.to_bits(), bc.to_bits(), "confidence diverged");
        }
    }

    /// Generation against a GAT reference equals generation without one,
    /// for candidates that differ from the reference state by node-shift
    /// moves, the reference state itself, and a state of another size.
    #[test]
    fn generate_batch_against_reference_is_bit_identical() {
        let mut model = GonModel::new(small_config());
        let base = test_state(16, 4, 0.45);
        let mut promoted = base.topology.clone();
        promoted.promote(9).unwrap();
        let mut reassigned = promoted.clone();
        reassigned.reassign(5, 9).unwrap();
        reassigned.reassign(6, 9).unwrap();
        let mut demoted = base.topology.clone();
        for w in demoted.workers_of(3).to_vec() {
            demoted.reassign(w, 0).unwrap();
        }
        demoted.demote(3, 0).unwrap();
        let states = vec![
            base.with_topology(&promoted),
            base.clone(),
            base.with_topology(&reassigned),
            test_state(8, 2, 0.3),
            base.with_topology(&demoted),
        ];
        let reference = model.gat_reference(&base);
        let want = model.generate_batch(&states);
        let got = model.generate_batch_against(&states, &reference);
        assert_eq!(got.len(), want.len());
        for (i, (a, b)) in want.iter().zip(&got).enumerate() {
            assert_eq!(
                a.confidence.to_bits(),
                b.confidence.to_bits(),
                "candidate {i}"
            );
            assert_eq!(a.iterations, b.iterations, "candidate {i}: iterations");
            assert_eq!(a.metrics_flat.len(), b.metrics_flat.len());
            for (x, y) in a.metrics_flat.iter().zip(&b.metrics_flat) {
                assert_eq!(x.to_bits(), y.to_bits(), "candidate {i}: metrics diverged");
            }
        }
    }

    /// The taped input-metric gradient the fused ascent replaced: head
    /// and encoder `backward_input` over the pool-backward rows, metric
    /// columns kept.
    fn backward_metrics_batch(
        model: &mut GonModel,
        segments: &[(usize, usize)],
        grad_scores: &[f64],
    ) -> Matrix {
        let hidden = model.config.hidden;
        let g = Matrix::from_vec(grad_scores.len(), 1, grad_scores.to_vec());
        let g_head = model.head.backward_input(&g); // [B × hidden + gat_dim]
        let (g_ms_pooled, _g_g_pooled) = g_head.hsplit(hidden);
        // Mean-pool backward: each host row of candidate b gets grad / n.
        let total: usize = segments.iter().map(|&(_, n)| n).sum();
        let mut g_ms = Matrix::zeros(total, hidden);
        for (b, &(offset, n)) in segments.iter().enumerate() {
            let nf = n as f64;
            for h in 0..n {
                for c in 0..hidden {
                    g_ms[(offset + h, c)] = g_ms_pooled[(b, c)] / nf;
                }
            }
        }
        let g_ms = model.ms_relu.backward_input(&g_ms);
        let dx = model.ms_dense.backward_input(&g_ms);
        dx.hsplit(METRIC_DIM).0
    }

    /// The taped batched eq.-1 ascent the fused one replaced — per step a
    /// taped encoder forward over every stacked row, pool, head forward,
    /// then [`backward_metrics_batch`] — kept as the fused path's oracle.
    fn generate_batch_taped(
        model: &mut GonModel,
        states: &[SystemState],
        reference: Option<&GatReference>,
    ) -> Vec<Generated> {
        let b = states.len();
        let refs: Vec<&SystemState> = states.iter().collect();
        let mut x = GonModel::stacked_ms(&refs);
        let segments = GonModel::segments(&refs);
        let e_g = model.graph_embeddings(&refs, &segments, reference);
        let mut flats: Vec<Vec<f64>> = states.iter().map(|s| s.metrics_flat()).collect();
        let mut outs: Vec<Generated> = flats
            .iter()
            .map(|f| Generated {
                metrics_flat: f.clone(),
                confidence: f64::NEG_INFINITY,
                iterations: 0,
            })
            .collect();
        let mut prev = vec![f64::NEG_INFINITY; b];
        let mut active = vec![true; b];
        let mut n_active = b;
        let tol = model.config.gen_tol * (model.config.gen_lr / 1e-3).max(1e-6);
        for it in 0..model.config.gen_steps {
            if n_active == 0 {
                break;
            }
            let e = model.encode(&x);
            let e_ms = GonModel::pool_segments(&e, &segments);
            let scores = model.head.forward(&e_ms.hcat(&e_g));
            let mut grads = vec![0.0; b];
            for i in 0..b {
                if !active[i] {
                    continue;
                }
                let score = scores[(i, 0)];
                if score > outs[i].confidence {
                    outs[i].confidence = score;
                    outs[i].metrics_flat = flats[i].clone();
                }
                outs[i].iterations = it + 1;
                let overshoot = score < prev[i];
                let plateaued = it > 0 && score - prev[i] < tol;
                if overshoot || plateaued {
                    active[i] = false;
                    n_active -= 1;
                } else {
                    prev[i] = score;
                    grads[i] = 1.0 / score.max(1e-9);
                }
            }
            if n_active == 0 {
                break;
            }
            let d_metrics = backward_metrics_batch(model, &segments, &grads);
            for i in 0..b {
                if !active[i] {
                    continue;
                }
                let (offset, n) = segments[i];
                let flat = &mut flats[i];
                kernel::ascent_update(
                    flat,
                    &d_metrics.data()[offset * METRIC_DIM..(offset + n) * METRIC_DIM],
                    model.config.gen_lr,
                );
                for h in 0..n {
                    x.row_mut(offset + h)[..METRIC_DIM]
                        .copy_from_slice(&flat[h * METRIC_DIM..(h + 1) * METRIC_DIM]);
                }
            }
        }
        if outs.iter().any(|o| o.confidence == f64::NEG_INFINITY) {
            let e = model.encode(&x);
            let e_ms = GonModel::pool_segments(&e, &segments);
            let scores = model.head.forward(&e_ms.hcat(&e_g));
            for (i, out) in outs.iter_mut().enumerate() {
                if out.confidence == f64::NEG_INFINITY {
                    out.confidence = scores[(i, 0)];
                }
            }
        }
        outs
    }

    /// The first bitwise difference between two generation results.
    fn first_difference(want: &[Generated], got: &[Generated]) -> Option<String> {
        if want.len() != got.len() {
            return Some(format!("{} results vs {}", want.len(), got.len()));
        }
        for (i, (a, b)) in want.iter().zip(got).enumerate() {
            if a.confidence.to_bits() != b.confidence.to_bits() {
                return Some(format!(
                    "candidate {i}: confidence {} vs {}",
                    a.confidence, b.confidence
                ));
            }
            if a.iterations != b.iterations {
                return Some(format!(
                    "candidate {i}: iterations {} vs {}",
                    a.iterations, b.iterations
                ));
            }
            let bits = |m: &[f64]| m.iter().map(|v| v.to_bits()).collect::<Vec<u64>>();
            if bits(&a.metrics_flat) != bits(&b.metrics_flat) {
                return Some(format!("candidate {i}: metrics diverged"));
            }
        }
        None
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(48))]

        /// The fused ascent against the taped oracle, bit for bit, over
        /// hidden widths that are and are not multiples of the kernel
        /// tiles, head depths 1–3, both step sizes, mixed host counts,
        /// metrics on the clamp bounds and one non-finite metric, with and
        /// without a GAT reference.
        #[test]
        fn fused_ascent_is_bit_identical_to_taped_oracle(
            // Hidden width × head depth × step size, 3 × 3 × 2 ways.
            shape in 0usize..18,
            sizes in proptest::collection::vec(2usize..20, 1..5),
            metrics in proptest::collection::vec(-0.25f64..1.25, 20 * METRIC_DIM),
            poison in 0usize..4,
            seed in 0u64..1 << 16,
        ) {
            let config = GonConfig {
                hidden: [12, 24, 128][shape % 3],
                head_layers: 1 + shape / 3 % 3,
                gat_dim: 8,
                gat_att: 4,
                gen_lr: [1e-3, 1e-2][shape / 9],
                gen_steps: 12,
                gen_tol: 1e-7,
                seed,
            };
            let base = test_state(sizes[0], (sizes[0] / 4).max(1), 0.4);
            let mut promoted = base.topology.clone();
            let _ = promoted.promote(seed as usize % sizes[0]);
            let mut states = vec![base.clone(), base.with_topology(&promoted)];
            states.extend(
                sizes[1..]
                    .iter()
                    .enumerate()
                    .map(|(i, &n)| test_state(n, (n / 3).max(1), 0.2 * i as f64)),
            );
            // Metrics drawn past both bounds and clamped: many sit exactly
            // on 0 or 1, where the ascent's clamp holds them.
            for (c, state) in states.iter_mut().enumerate() {
                for h in 0..state.n_hosts() {
                    for k in 0..METRIC_DIM {
                        let v = metrics[(c * 7 + h * METRIC_DIM + k) % metrics.len()];
                        state.metrics[h][k] = v.clamp(0.0, 1.0);
                    }
                }
            }
            if poison > 0 {
                let c = (seed as usize / 7) % states.len();
                let h = (seed as usize / 3) % states[c].n_hosts();
                states[c].metrics[h][seed as usize % METRIC_DIM] =
                    [f64::NAN, f64::INFINITY, f64::NEG_INFINITY][poison - 1];
            }

            let mut model = GonModel::new(config);
            let reference = model.gat_reference(&base);
            for r in [None, Some(&reference)] {
                let want = generate_batch_taped(&mut model.clone(), &states, r);
                let got = model.generate_batch_impl(&states, r, false);
                let diff = first_difference(&want, &got);
                proptest::prop_assert!(diff.is_none(), "reference {}: {diff:?}", r.is_some());
            }
        }
    }

    #[test]
    fn fused_ascent_matches_oracle_with_zero_steps_and_one_host() {
        let mut model = GonModel::new(GonConfig {
            gen_steps: 0,
            ..small_config()
        });
        let states = vec![test_state(1, 1, 0.7), test_state(5, 2, 0.2)];
        let want = generate_batch_taped(&mut model.clone(), &states, None);
        assert_eq!(
            first_difference(&want, &model.generate_batch(&states)),
            None
        );
    }

    /// A non-finite head gradient reaches rows whose every unit is
    /// rectified: the taped backward multiplies it by relu' = 0 and adds
    /// the NaN products, so the fused path must too.
    #[test]
    fn non_finite_gradient_propagates_through_rectified_rows() {
        let mut model = GonModel::new(small_config());
        // Every finite row rectifies to zero; an infinite metric does not.
        model.params_mut()[1].value.data_mut().fill(-1e3);
        let mut poisoned = test_state(6, 2, 0.5);
        poisoned.metrics[2][0] = f64::INFINITY;
        let states = vec![test_state(4, 2, 0.3), poisoned];
        let want = generate_batch_taped(&mut model.clone(), &states, None);
        assert!(
            want[1].metrics_flat.iter().any(|v| v.is_nan()),
            "the fixture must drive a NaN gradient into the metrics"
        );
        assert_eq!(
            first_difference(&want, &model.generate_batch(&states)),
            None
        );
    }

    #[test]
    fn generate_batch_nograd_leaves_accumulated_gradients_bit_identical() {
        let mut model = GonModel::new(small_config());
        let states = mixed_batch();
        // Accumulate non-zero parameter gradients first.
        let _ = model.score(&states[0]);
        model.backward(states[0].n_hosts(), 0.7);
        let before: Vec<Vec<u64>> = model
            .params_mut()
            .iter()
            .map(|p| p.grad.data().iter().map(|g| g.to_bits()).collect())
            .collect();
        assert!(before.iter().flatten().any(|&g| f64::from_bits(g) != 0.0));
        let got = model.generate_batch_nograd(&states);
        let after: Vec<Vec<u64>> = model
            .params_mut()
            .iter()
            .map(|p| p.grad.data().iter().map(|g| g.to_bits()).collect())
            .collect();
        assert_eq!(
            before, after,
            "the no-grad ascent touched parameter gradients"
        );
        let want = generate_batch_taped(&mut model.clone(), &states, None);
        assert_eq!(first_difference(&want, &got), None);
    }

    #[test]
    fn cloned_model_scores_bit_identically() {
        let mut model = GonModel::new(small_config());
        let mut replica = model.clone();
        assert_eq!(replica.param_count(), model.param_count());
        let state = test_state(8, 2, 0.5);
        assert_eq!(
            model.score(&state).to_bits(),
            replica.score(&state).to_bits()
        );
        let a = model.generate(&state);
        let b = replica.generate(&state);
        assert_eq!(a.confidence.to_bits(), b.confidence.to_bits());
        assert_eq!(a.metrics_flat, b.metrics_flat);
    }

    #[test]
    fn memory_mapping_follows_figure_6b() {
        for (gb, layers) in [(0.25, 1), (0.5, 2), (1.0, 3), (2.0, 4), (5.0, 6)] {
            let c = GonConfig::default().with_memory_gb(gb);
            assert_eq!(c.head_layers, layers, "gb={gb}");
            assert_eq!(c.nominal_memory_gb(), gb);
        }
    }

    #[test]
    fn deeper_heads_have_more_parameters() {
        let small = GonModel::new(GonConfig::default().with_memory_gb(0.25));
        let big = GonModel::new(GonConfig::default().with_memory_gb(5.0));
        assert!(big.param_count() > small.param_count());
    }
}
