//! Output checks, computed apart from the pipeline under test: dense
//! state-vector replay, the paper's published Table-1 counts, and raw-bit
//! circuit digests.

use std::fs;

use json::Json;

use mdq_circuit::{Circuit, Gate};
use mdq_num::radix::Dims;
use mdq_num::Complex;
use mdq_sim::StateVector;

/// The JSON reader the repository's integration tests load the same golden
/// file with.
#[allow(dead_code)]
#[path = "../../tests/support/json.rs"]
mod json;

/// FNV-1a over the raw bits of a circuit: register, and per instruction the
/// target, the controls, and the gate with its angles' bit patterns. Two
/// circuits share a digest only if they are raw-bit identical (barring a
/// 64-bit collision).
pub fn digest(circuit: &Circuit) -> u64 {
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    for &d in circuit.dims().as_slice() {
        h.word(d as u64);
    }
    for ins in circuit.instructions() {
        h.word(ins.qudit as u64);
        h.word(ins.controls.len() as u64);
        for c in &ins.controls {
            h.word(c.qudit as u64);
            h.word(c.level as u64);
        }
        match &ins.gate {
            Gate::Givens { lo, hi, theta, phi } => {
                h.words(&[1, *lo as u64, *hi as u64, theta.to_bits(), phi.to_bits()]);
            }
            Gate::PhaseLevel { level, angle } => h.words(&[2, *level as u64, angle.to_bits()]),
            Gate::ZRotation { lo, hi, theta } => {
                h.words(&[3, *lo as u64, *hi as u64, theta.to_bits()]);
            }
            // The synthesis pipeline emits only the three gates above.
            other => h.bytes(format!("{other:?}").as_bytes()),
        }
    }
    h.0
}

struct Fnv(u64);

impl Fnv {
    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn word(&mut self, w: u64) {
        self.bytes(&w.to_le_bytes());
    }

    fn words(&mut self, ws: &[u64]) {
        for &w in ws {
            self.word(w);
        }
    }
}

/// Sum of controls over all operations: the numerator of the paper's
/// "#Controls" average.
pub fn control_sum(circuit: &Circuit) -> u64 {
    circuit.iter().map(|ins| ins.control_count() as u64).sum()
}

/// Fidelity of the state the circuit prepares from |0…0⟩, by dense
/// state-vector simulation, against the normalized target.
pub fn dense_fidelity(circuit: &Circuit, target: &[Complex]) -> f64 {
    let mut sv = StateVector::ground(circuit.dims().clone());
    sv.apply_circuit(circuit);
    let norm = mdq_num::norm(target);
    let normalized: Vec<Complex> = target.iter().map(|a| *a / norm).collect();
    sv.fidelity_with_amplitudes(&normalized)
}

/// The paper's Table-1 counts for one register, from the golden file.
#[derive(Debug, Clone, Default)]
pub struct GoldenRegister {
    pub dims: Vec<usize>,
    pub nodes_exact: usize,
    /// Exact operation counts per structured family (Table-1 name).
    pub operations: Vec<(String, usize)>,
    pub random_exact_operations: Option<usize>,
}

impl GoldenRegister {
    pub fn operations_of(&self, family: &str) -> Option<usize> {
        self.operations
            .iter()
            .find(|(name, _)| name == family)
            .map(|&(_, ops)| ops)
    }
}

/// Reads the Table-1 golden file with the repository's fixture reader.
///
/// # Panics
///
/// Panics, naming the field, if the file does not have the golden layout.
pub fn load_golden(path: &str) -> Result<Vec<GoldenRegister>, String> {
    let text = fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let root = Json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    let registers = root.get("registers").ok_or("no registers")?.expect_array();
    Ok(registers
        .iter()
        .map(|reg| GoldenRegister {
            dims: reg
                .get("dims")
                .expect("register without dims")
                .expect_array()
                .iter()
                .map(Json::expect_usize)
                .collect(),
            nodes_exact: reg
                .get("nodes_exact")
                .expect("no nodes_exact")
                .expect_usize(),
            operations: reg
                .get("operations")
                .map(|ops| {
                    ops.expect_object()
                        .iter()
                        .map(|(family, n)| (family.clone(), n.expect_usize()))
                        .collect()
                })
                .unwrap_or_default(),
            random_exact_operations: reg.get("random_exact_operations").map(Json::expect_usize),
        })
        .collect())
}

pub fn golden_for<'a>(golden: &'a [GoldenRegister], dims: &Dims) -> Option<&'a GoldenRegister> {
    golden.iter().find(|g| g.dims == dims.as_slice())
}
