//! Kernel objects and capabilities.

use crate::rights::Rights;
use std::fmt;
use sysmem::Handle;

/// Kernel object identifier: the object table's `slot | generation << 32`
/// handle. Destroying an object bumps its slot's generation, so every
/// identifier of it goes stale, even once the slot names a new object.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ObjId(pub Handle);

impl fmt::Display for ObjId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "obj{}.{}", self.0.slot(), self.0.generation())
    }
}

/// What kind of object a capability names.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ObjectKind {
    /// A synchronous IPC endpoint.
    Endpoint,
    /// A fixed-size memory page.
    Page,
}

impl ObjectKind {
    /// The kind's name in errors and displays.
    pub(crate) fn name(self) -> &'static str {
        match self {
            ObjectKind::Endpoint => "endpoint",
            ObjectKind::Page => "page",
        }
    }
}

impl fmt::Display for ObjectKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A capability: unforgeable reference + rights. Capabilities are the *only*
/// way to name kernel objects — there is no global namespace to attack.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Capability {
    /// Target object.
    pub target: ObjId,
    /// Kind of the target (cached for error messages; validated on use).
    pub kind: ObjectKind,
    /// Rights over the target.
    pub rights: Rights,
}

impl Capability {
    /// Creates a capability.
    #[must_use]
    pub fn new(target: ObjId, kind: ObjectKind, rights: Rights) -> Self {
        Capability {
            target,
            kind,
            rights,
        }
    }

    /// Mints a diminished copy: the result's rights are the intersection of
    /// this capability's rights with `requested`. Never amplifies.
    #[must_use]
    pub fn mint(&self, requested: Rights) -> Capability {
        Capability {
            target: self.target,
            kind: self.kind,
            rights: self.rights & requested,
        }
    }
}

impl fmt::Display for Capability {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "cap({} {} [{}])", self.kind, self.target, self.rights)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mint_intersects_rights() {
        let c = Capability::new(
            ObjId(Handle(1)),
            ObjectKind::Endpoint,
            Rights::SEND | Rights::GRANT,
        );
        let m = c.mint(Rights::SEND | Rights::RECV);
        assert_eq!(m.rights, Rights::SEND);
        assert_eq!(m.target, c.target);
    }

    #[test]
    fn mint_can_only_diminish() {
        let c = Capability::new(ObjId(Handle(1)), ObjectKind::Page, Rights::READ);
        let m = c.mint(Rights::ALL);
        assert!(c.rights.contains(m.rights));
    }

    #[test]
    fn display_shows_kind_target_rights() {
        let c = Capability::new(
            ObjId(Handle(2)),
            ObjectKind::Page,
            Rights::READ | Rights::WRITE,
        );
        assert_eq!(c.to_string(), "cap(page obj2.0 [RW])");
    }
}
