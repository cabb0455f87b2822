//! Parameter serialization and network state copies.
//!
//! Networks are rebuilt from their architecture (code) and re-filled with
//! parameters; only the flat parameter tensors are stored. The same
//! mechanism implements Double-DQN target-network synchronization: read the
//! online network's state, load it into the target network.

use crate::layers::Layer;

/// Extracts every parameter tensor, followed by every state buffer
/// (batch-norm running statistics), in visit order.
pub fn state(net: &mut dyn Layer) -> Vec<Vec<f32>> {
    let mut out = Vec::new();
    net.visit_params(&mut |p| out.push(p.data.clone()));
    net.visit_buffers(&mut |b| out.push(b.clone()));
    out
}

/// Loads tensors produced by [`state`] back into a network of the same
/// architecture (parameters first, then buffers).
///
/// # Errors
///
/// Fails if the tensor count or any tensor length differs.
pub fn load_state(net: &mut dyn Layer, state: &[Vec<f32>]) -> Result<(), String> {
    let mut idx = 0usize;
    let mut error: Option<String> = None;
    {
        let mut fill = |dst: &mut [f32]| {
            if error.is_some() {
                return;
            }
            match state.get(idx) {
                Some(s) if s.len() == dst.len() => dst.copy_from_slice(s),
                Some(s) => {
                    error = Some(format!(
                        "tensor {idx}: expected {} values, got {}",
                        dst.len(),
                        s.len()
                    ))
                }
                None => error = Some(format!("missing tensor {idx}")),
            }
            idx += 1;
        };
        net.visit_params(&mut |p| fill(&mut p.data));
        net.visit_buffers(&mut |b| fill(b));
    }
    if let Some(e) = error {
        return Err(e);
    }
    let expected = idx;
    if state.len() != expected {
        return Err(format!(
            "state has {} tensors, network expects {expected}",
            state.len()
        ));
    }
    Ok(())
}

/// A 64-bit FNV-1a digest over parameter tensors, for cheap integrity
/// checks of checkpointed network state (two identical states always agree;
/// any flipped bit almost surely disagrees).
pub fn digest(tensors: &[Vec<f32>]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut mix = |byte: u8| {
        h ^= byte as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    };
    for t in tensors {
        for b in (t.len() as u64).to_le_bytes() {
            mix(b);
        }
        for v in t {
            for b in v.to_le_bytes() {
                mix(b);
            }
        }
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compute::Scratch;
    use crate::layers::{BatchNorm2d, Conv2d};
    use crate::tensor::Tensor;

    fn build() -> Conv2d {
        Conv2d::new(2, 4, 3, 1)
    }

    #[test]
    fn state_roundtrip_preserves_outputs() {
        let mut a = build();
        let mut b = Conv2d::new(2, 4, 3, 99);
        let x = Tensor::ones([1, 2, 4, 4]);
        let mut scratch = Scratch::new();
        assert_ne!(
            a.infer(&x, &mut scratch).data(),
            b.infer(&x, &mut scratch).data()
        );
        let s = state(&mut a);
        load_state(&mut b, &s).unwrap();
        assert_eq!(
            a.infer(&x, &mut scratch).data(),
            b.infer(&x, &mut scratch).data()
        );

        // Buffers ride along after the parameters: batch-norm running
        // statistics moved by a training forward.
        let mut bn = BatchNorm2d::new(2);
        let y = Tensor::from_vec([1, 2, 1, 2], vec![1.0, 3.0, -2.0, 5.0]);
        bn.forward(&y);
        let s = state(&mut bn);
        assert_eq!(s.len(), 4, "gamma, beta, running mean, running var");
        let mut fresh = BatchNorm2d::new(2);
        load_state(&mut fresh, &s).unwrap();
        assert_eq!(
            bn.infer(&y, &mut scratch).data(),
            fresh.infer(&y, &mut scratch).data()
        );
    }

    #[test]
    fn mismatched_architecture_errors() {
        let mut a = build();
        let s = state(&mut a);
        let mut tiny = Conv2d::new(1, 1, 1, 0);
        assert!(load_state(&mut tiny, &s).is_err());
        let mut no_bias = Conv2d::new_no_bias(2, 4, 3, 1);
        assert!(load_state(&mut no_bias, &s).is_err(), "extra tensor");
    }

    #[test]
    fn digest_distinguishes_states() {
        let mut a = build();
        let s = state(&mut a);
        let d = digest(&s);
        assert_eq!(d, digest(&s), "digest is deterministic");
        let mut tweaked = s.clone();
        tweaked[0][0] += 1.0;
        assert_ne!(d, digest(&tweaked));
        // Tensor boundaries matter: [[x],[y]] != [[x,y]].
        let split = vec![vec![1.0f32], vec![2.0]];
        let joined = vec![vec![1.0f32, 2.0]];
        assert_ne!(digest(&split), digest(&joined));
    }
}
