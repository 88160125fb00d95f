use super::{assemble_cubes, Layer};
use crate::arena::BatchArena;
use crate::Param;
use dcam_tensor::Tensor;

/// A chain of layers applied in order.
pub struct Sequential {
    layers: Vec<Box<dyn Layer>>,
}

impl Sequential {
    /// Creates an empty chain.
    #[allow(clippy::new_without_default)]
    pub fn new() -> Self {
        Sequential { layers: Vec::new() }
    }

    /// Appends a layer, builder-style.
    pub fn push(mut self, layer: impl Layer + 'static) -> Self {
        self.layers.push(Box::new(layer));
        self
    }

    /// Appends a boxed layer in place.
    pub fn add(&mut self, layer: Box<dyn Layer>) {
        self.layers.push(layer);
    }

    /// Number of layers in the chain.
    pub fn len(&self) -> usize {
        self.layers.len()
    }

    /// True when the chain is empty (then it acts as the identity).
    pub fn is_empty(&self) -> bool {
        self.layers.is_empty()
    }
}

impl Layer for Sequential {
    fn forward(&mut self, x: &Tensor, train: bool) -> Tensor {
        let mut cur = x.clone();
        for layer in &mut self.layers {
            cur = layer.forward(&cur, train);
        }
        cur
    }

    fn forward_eval(&mut self, x: Tensor, arena: &mut BatchArena) -> Tensor {
        let mut cur = x;
        for layer in &mut self.layers {
            cur = layer.forward_eval(cur, arena);
        }
        cur
    }

    /// Only the first layer sees the cube samples; the rest of the chain
    /// runs the ordinary eval walk on its output.
    fn forward_eval_cubes(
        &mut self,
        samples: &[(&[f32], &[usize])],
        arena: &mut BatchArena,
    ) -> Tensor {
        let Some((first, rest)) = self.layers.split_first_mut() else {
            return assemble_cubes(samples, arena);
        };
        let mut cur = first.forward_eval_cubes(samples, arena);
        for layer in rest {
            cur = layer.forward_eval(cur, arena);
        }
        cur
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let mut cur = grad_out.clone();
        for layer in self.layers.iter_mut().rev() {
            cur = layer.backward(&cur);
        }
        cur
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        for layer in &mut self.layers {
            layer.visit_params(f);
        }
    }

    fn visit_buffers(&mut self, f: &mut dyn FnMut(&mut Vec<f32>)) {
        for layer in &mut self.layers {
            layer.visit_buffers(f);
        }
    }

    fn visit_convs(&mut self, f: &mut dyn FnMut(&mut crate::layers::Conv2dRows)) {
        for layer in &mut self.layers {
            layer.visit_convs(f);
        }
    }

    fn visit_quant(&mut self, f: &mut dyn FnMut(&mut crate::quant::QuantState)) {
        for layer in &mut self.layers {
            layer.visit_quant(f);
        }
    }
}

/// A residual block: `y = main(x) + shortcut(x)`.
///
/// The shortcut defaults to the identity; ResNet uses a 1×1 convolution +
/// batch-norm shortcut whenever the channel count changes. Shapes of the two
/// branches must agree at the output.
pub struct Residual {
    main: Sequential,
    shortcut: Sequential,
}

impl Residual {
    /// Residual block with an identity shortcut.
    pub fn identity(main: Sequential) -> Self {
        Residual {
            main,
            shortcut: Sequential::new(),
        }
    }

    /// Residual block with a projection shortcut.
    pub fn with_shortcut(main: Sequential, shortcut: Sequential) -> Self {
        Residual { main, shortcut }
    }
}

impl Layer for Residual {
    fn forward(&mut self, x: &Tensor, train: bool) -> Tensor {
        let main = self.main.forward(x, train);
        let side = if self.shortcut.is_empty() {
            x.clone()
        } else {
            self.shortcut.forward(x, train)
        };
        main.add(&side).expect("residual branch shapes must agree")
    }

    fn forward_eval(&mut self, x: Tensor, arena: &mut BatchArena) -> Tensor {
        // Both branches need the input: duplicate it through the arena so
        // the copy's storage is recycled rather than allocated per block.
        let mut side_buf = arena.take(x.len());
        side_buf.copy_from_slice(x.data());
        let x_side = Tensor::from_vec(side_buf, x.dims()).expect("residual input copy");
        let mut main = self.main.forward_eval(x, arena);
        let side = if self.shortcut.is_empty() {
            x_side
        } else {
            self.shortcut.forward_eval(x_side, arena)
        };
        main.add_assign(&side)
            .expect("residual branch shapes must agree");
        arena.recycle(side);
        main
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let g_main = self.main.backward(grad_out);
        let g_side = if self.shortcut.is_empty() {
            grad_out.clone()
        } else {
            self.shortcut.backward(grad_out)
        };
        g_main
            .add(&g_side)
            .expect("residual grad shapes must agree")
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        self.main.visit_params(f);
        self.shortcut.visit_params(f);
    }

    fn visit_buffers(&mut self, f: &mut dyn FnMut(&mut Vec<f32>)) {
        self.main.visit_buffers(f);
        self.shortcut.visit_buffers(f);
    }

    fn visit_convs(&mut self, f: &mut dyn FnMut(&mut crate::layers::Conv2dRows)) {
        self.main.visit_convs(f);
        self.shortcut.visit_convs(f);
    }

    fn visit_quant(&mut self, f: &mut dyn FnMut(&mut crate::quant::QuantState)) {
        self.main.visit_quant(f);
        self.shortcut.visit_quant(f);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::{Dense, Relu};
    use dcam_tensor::SeededRng;

    #[test]
    fn sequential_composes_in_order() {
        let mut rng = SeededRng::new(0);
        let mut d1 = Dense::new(3, 4, &mut rng);
        let mut d2 = Dense::new(4, 2, &mut rng);
        let x = Tensor::uniform(&[2, 3], -1.0, 1.0, &mut rng);
        let manual = d2.forward(&d1.forward(&x, false), false);

        let mut rng2 = SeededRng::new(0);
        let mut seq = Sequential::new()
            .push(Dense::new(3, 4, &mut rng2))
            .push(Dense::new(4, 2, &mut rng2));
        let composed = seq.forward(&x, false);
        assert!(manual.allclose(&composed, 1e-6));
    }

    #[test]
    fn empty_sequential_is_identity() {
        let mut seq = Sequential::new();
        let x = Tensor::ones(&[2, 2]);
        assert_eq!(seq.forward(&x, true), x);
        assert_eq!(seq.backward(&x), x);
    }

    #[test]
    fn identity_residual_doubles_identity_main() {
        // main = empty sequential = identity, so y = 2x.
        let mut res = Residual::identity(Sequential::new());
        let x = Tensor::from_vec(vec![1.0, -2.0], &[2, 1]).unwrap();
        let y = res.forward(&x, true);
        assert_eq!(y.data(), &[2.0, -4.0]);
        let g = res.backward(&Tensor::ones(&[2, 1]));
        assert_eq!(g.data(), &[2.0, 2.0]);
    }

    #[test]
    fn params_visited_across_branches() {
        let mut rng = SeededRng::new(1);
        let main = Sequential::new()
            .push(Dense::new(2, 2, &mut rng))
            .push(Relu::new());
        let shortcut = Sequential::new().push(Dense::new(2, 2, &mut rng));
        let mut res = Residual::with_shortcut(main, shortcut);
        // Two dense layers: 2*(2*2 + 2) = 12 scalars.
        assert_eq!(res.param_count(), 12);
    }
}
