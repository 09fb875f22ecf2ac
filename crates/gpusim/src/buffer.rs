//! Typed buffer identities.
//!
//! Producer and consumer kernels agree on a buffer by its [`BufferId`]: a
//! [`Scope`] (which layer of which stack), a `&'static str` role and a
//! weight flag. An id is `Copy`, compares and hashes without touching the
//! heap, and renders as the dotted name reports and serde show:
//! `l3.scores`, `l3.q.w` (the weights of the layer that writes `l3.q`),
//! `enc0.x`, `dec1.self.ln1`, `dec1.cross.k`, or a bare `tokens`.

use serde::{DeError, Deserialize, Serialize, Value};
use std::collections::BTreeSet;
use std::fmt;
use std::sync::{Mutex, PoisonError};

/// The namespace of a buffer id: which layer of which stack owns it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Scope {
    /// No prefix: schedule-wide buffers such as `tokens`.
    Global,
    /// Layer `k` of a single stack (prefill, decode, training): `l{k}`.
    Layer(u32),
    /// Encoder layer `k` of an encoder–decoder model: `enc{k}`.
    Encoder(u32),
    /// The self-attention half of decoder layer `k`: `dec{k}.self`.
    DecoderSelf(u32),
    /// The cross-attention half of decoder layer `k`: `dec{k}.cross`.
    DecoderCross(u32),
}

impl Scope {
    /// Layer `k` of a single stack (`l{k}`).
    pub fn layer(k: usize) -> Scope {
        Scope::Layer(index(k))
    }

    /// Encoder layer `k` (`enc{k}`).
    pub fn encoder(k: usize) -> Scope {
        Scope::Encoder(index(k))
    }

    /// The self-attention half of decoder layer `k` (`dec{k}.self`).
    pub fn decoder_self(k: usize) -> Scope {
        Scope::DecoderSelf(index(k))
    }

    /// The cross-attention half of decoder layer `k` (`dec{k}.cross`).
    pub fn decoder_cross(k: usize) -> Scope {
        Scope::DecoderCross(index(k))
    }

    /// Buffer `role` of this scope. A role is a non-empty name without a
    /// `.`, so every id renders to a name that parses back to it.
    pub fn id(self, role: &'static str) -> BufferId {
        debug_assert!(
            !role.is_empty() && !role.contains('.'),
            "buffer role `{role}` must be a non-empty name without '.'"
        );
        BufferId {
            scope: self,
            role,
            weight: false,
        }
    }
}

fn index(k: usize) -> u32 {
    u32::try_from(k).expect("layer index fits in u32")
}

/// A buffer's identity: see the module docs.
///
/// Two ids are equal exactly when their rendered names are equal.
/// [`From<&'static str>`](BufferId::from) parses a rendered name, so a
/// literal such as `"l0.scores"` converts to the id a builder emits for it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BufferId {
    scope: Scope,
    role: &'static str,
    weight: bool,
}

impl BufferId {
    /// The scope this id lives in.
    pub fn scope(self) -> Scope {
        self.scope
    }

    /// The role within the scope: `scores` for `l3.scores`, `q` for both
    /// `l3.q` and its weights `l3.q.w`, the whole name for an unscoped id.
    pub fn role(self) -> &'static str {
        self.role
    }

    /// `true` for the weights of a layer (`l3.q.w`).
    pub fn is_weight(self) -> bool {
        self.weight
    }

    /// `true` when this is buffer `role` itself, not its weights.
    pub fn is(self, role: &str) -> bool {
        !self.weight && self.role == role
    }

    /// The weights of the layer that writes this buffer: `l3.q` → `l3.q.w`.
    pub fn weights(self) -> BufferId {
        debug_assert!(
            self.scope != Scope::Global && !self.weight,
            "`{self}` has no weights id"
        );
        BufferId {
            weight: true,
            ..self
        }
    }

    /// The same buffer one layer later: `l3.q` → `l4.q`. Any other id,
    /// including the other stacks' layers, is returned unchanged.
    pub fn next_layer(self) -> BufferId {
        self.layers_later(1)
    }

    /// [`Self::next_layer`] applied `layers` times: `l3.q` → `l{3+layers}.q`.
    /// An index stops at `u32::MAX`.
    pub fn layers_later(self, layers: usize) -> BufferId {
        match self.scope {
            Scope::Layer(k) => BufferId {
                scope: Scope::Layer(k.saturating_add(u32::try_from(layers).unwrap_or(u32::MAX))),
                ..self
            },
            _ => self,
        }
    }
}

/// Splits a rendered name into scope, role and weight flag. A layer index
/// is canonical (no leading zero), so `l03.x` is an unscoped name, and
/// `.w` marks weights only after a non-empty role (`l0.w` is role `w`).
fn parse(name: &str) -> (Scope, &str, bool) {
    let (scope, rest) = split_scope(name);
    match rest.strip_suffix(".w") {
        Some(role) if !role.is_empty() => (scope, role, true),
        _ => (scope, rest, false),
    }
}

fn split_scope(name: &str) -> (Scope, &str) {
    let scoped = if let Some(rest) = name.strip_prefix("dec") {
        layer_index(rest).and_then(|(k, rest)| match rest.split_once('.') {
            Some(("self", role)) => Some((Scope::DecoderSelf(k), role)),
            Some(("cross", role)) => Some((Scope::DecoderCross(k), role)),
            _ => None,
        })
    } else if let Some(rest) = name.strip_prefix("enc") {
        layer_index(rest).map(|(k, r)| (Scope::Encoder(k), r))
    } else if let Some(rest) = name.strip_prefix('l') {
        layer_index(rest).map(|(k, r)| (Scope::Layer(k), r))
    } else {
        None
    };
    scoped.unwrap_or((Scope::Global, name))
}

/// `rest` split after a canonical layer index and its `.`: `"12.x"` →
/// `(12, "x")`.
fn layer_index(rest: &str) -> Option<(u32, &str)> {
    let digits = rest.bytes().take_while(u8::is_ascii_digit).count();
    let canonical = digits == 1 || (digits > 1 && !rest.starts_with('0'));
    let k = rest[..digits].parse().ok().filter(|_| canonical)?;
    Some((k, rest[digits..].strip_prefix('.')?))
}

impl From<&'static str> for BufferId {
    fn from(name: &'static str) -> Self {
        let (scope, role, weight) = parse(name);
        BufferId {
            scope,
            role,
            weight,
        }
    }
}

impl PartialEq<&str> for BufferId {
    fn eq(&self, name: &&str) -> bool {
        let (scope, role, weight) = parse(name);
        self.scope == scope && self.role == role && self.weight == weight
    }
}

impl fmt::Display for BufferId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.scope {
            Scope::Global => {}
            Scope::Layer(k) => write!(f, "l{k}.")?,
            Scope::Encoder(k) => write!(f, "enc{k}.")?,
            Scope::DecoderSelf(k) => write!(f, "dec{k}.self.")?,
            Scope::DecoderCross(k) => write!(f, "dec{k}.cross.")?,
        }
        f.write_str(self.role)?;
        if self.weight {
            f.write_str(".w")?;
        }
        Ok(())
    }
}

impl Serialize for BufferId {
    fn to_value(&self) -> Value {
        Value::Str(self.to_string())
    }
}

impl Deserialize for BufferId {
    /// Parses the rendered name. Each distinct name read back is leaked
    /// once, so the role can borrow it for `'static`.
    fn from_value(v: &Value) -> Result<Self, DeError> {
        static NAMES: Mutex<BTreeSet<&'static str>> = Mutex::new(BTreeSet::new());
        let name = v.as_str().ok_or_else(|| DeError::new("expected string"))?;
        let mut names = NAMES.lock().unwrap_or_else(PoisonError::into_inner);
        let name = if let Some(&interned) = names.get(name) {
            interned
        } else {
            let leaked: &'static str = Box::leak(name.into());
            names.insert(leaked);
            leaked
        };
        Ok(BufferId::from(name))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scoped_ids_render_and_parse() {
        for (id, name) in [
            (Scope::layer(3).id("scores"), "l3.scores"),
            (Scope::layer(9).id("ff2").weights(), "l9.ff2.w"),
            (Scope::encoder(0).id("x"), "enc0.x"),
            (Scope::decoder_self(1).id("ln1"), "dec1.self.ln1"),
            (
                Scope::decoder_cross(12).id("k").weights(),
                "dec12.cross.k.w",
            ),
            (Scope::Global.id("tokens"), "tokens"),
        ] {
            assert_eq!(id.to_string(), name);
            assert_eq!(BufferId::from(name), id, "{name}");
            assert_eq!(id, name);
        }
    }

    #[test]
    fn non_canonical_names_stay_unscoped_and_round_trip() {
        for name in [
            "x",
            "l.x",
            "l03.x",
            "lx.3",
            "l7",
            "l0.",
            "l0.w",
            "l0..w",
            "x.w",
            "dec0.x",
            "dec0.selfish.x",
            "enc",
            "attn/l3/h0",
            "m'",
            "l4294967296.x",
            "",
        ] {
            assert_eq!(BufferId::from(name).to_string(), name);
        }
        assert_eq!(BufferId::from("l03.x").scope(), Scope::Global);
        assert_eq!(BufferId::from("l0.w").role(), "w");
        assert!(!BufferId::from("l0.w").is_weight());
        assert!(BufferId::from("l0.q.w").is_weight() && !BufferId::from("l0.q.w").is("q"));
    }

    #[test]
    fn next_layer_advances_canonical_prefixes_only() {
        for (id, next) in [
            ("l0.x", "l1.x"),
            ("l9.ff2.w", "l10.ff2.w"),
            ("l23.k_cache", "l24.k_cache"),
        ] {
            let shifted = BufferId::from(id).next_layer();
            assert_eq!(shifted, BufferId::from(next));
            assert_eq!(shifted.to_string(), next);
        }
        for unchanged in [
            "x",
            "ln1",
            "l.x",
            "l03.x",
            "lx.3",
            "l7",
            "enc0.x",
            "dec3.self.q",
        ] {
            let shifted = BufferId::from(unchanged).next_layer();
            assert_eq!(shifted, BufferId::from(unchanged));
            assert_eq!(shifted.to_string(), unchanged);
        }
    }

    #[test]
    fn layers_later_is_next_layer_repeated_up_to_the_last_index() {
        let id = Scope::layer(7).id("q").weights();
        let mut stepped = id;
        for layers in 0..5 {
            assert_eq!(id.layers_later(layers), stepped);
            stepped = stepped.next_layer();
        }
        let last = Scope::Layer(u32::MAX - 1).id("b");
        assert_eq!(last.layers_later(1), Scope::Layer(u32::MAX).id("b"));
        assert_eq!(
            last.layers_later(usize::MAX),
            Scope::Layer(u32::MAX).id("b")
        );
        assert_eq!(
            Scope::encoder(3).id("x").layers_later(2),
            Scope::encoder(3).id("x")
        );
    }

    #[test]
    fn serde_writes_the_rendered_name() {
        let id = Scope::decoder_cross(2).id("q").weights();
        let value = id.to_value();
        assert_eq!(value, Value::Str("dec2.cross.q.w".into()));
        assert_eq!(BufferId::from_value(&value).unwrap(), id);
    }
}
