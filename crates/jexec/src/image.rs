//! Executable image: the resolved, loaded form of a program.
//!
//! Building an image performs the work of class loading and verification:
//! duplicate detection, member resolution, and compilation of every method
//! body to bytecode. The JIT tier later *re*-compiles individual methods
//! from their (optimized) ASTs and swaps the code in via
//! [`Image::install_code`].

use crate::code::{Code, MethodId};
use crate::compile::compile_method_ast;
use crate::error::BuildError;
use crate::value::{ClassId, Value};
use std::collections::HashMap;

/// One field in a class layout.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FieldLayout {
    /// Field name.
    pub name: String,
    /// Field type.
    pub ty: mjava::Type,
    /// Initial value (from the literal initializer, or the type default).
    pub init: Value,
}

/// The loaded form of one class.
#[derive(Debug, Clone, PartialEq)]
pub struct ClassImage {
    /// Class name.
    pub name: String,
    /// Instance field layout.
    pub instance_fields: Vec<FieldLayout>,
    /// Static field layout.
    pub static_fields: Vec<FieldLayout>,
    /// Methods by name (MiniJava has no overloading).
    pub method_index: HashMap<String, MethodId>,
}

impl ClassImage {
    /// Offset of an instance field.
    pub fn instance_offset(&self, name: &str) -> Option<usize> {
        self.instance_fields.iter().position(|f| f.name == name)
    }

    /// Offset of a static field.
    pub fn static_offset(&self, name: &str) -> Option<usize> {
        self.static_fields.iter().position(|f| f.name == name)
    }

    /// Default instance field values for allocation.
    pub fn field_defaults(&self) -> Vec<Value> {
        self.instance_fields.iter().map(|f| f.init).collect()
    }
}

/// The loaded form of one method: its signature and installed code. The
/// source AST is not kept — the JIT tier reads it from the program — so
/// cloning an image per JVM copies only bytecode, and image equality
/// (which the run memo behind [`crate::run`] relies on) compares only
/// what execution reads.
#[derive(Debug, Clone, PartialEq)]
pub struct MethodImage {
    /// Owning class.
    pub class: ClassId,
    /// Method name.
    pub name: String,
    /// True for static methods.
    pub is_static: bool,
    /// True for `synchronized` methods.
    pub is_sync: bool,
    /// Parameter types.
    pub params: Vec<mjava::Type>,
    /// Return type.
    pub ret: mjava::Type,
    /// Currently installed executable code (interpreter tier at load time;
    /// the JIT tier replaces this).
    pub code: Code,
    /// Fingerprint of the currently installed [`Code`], kept in sync by
    /// [`Image::build`] and [`Image::install_code`]. Together with the
    /// image's [`Image::shape_fp`] it feeds the run memo's digest, which
    /// only picks a candidate entry; a hit is verified by full equality.
    pub code_fp: u64,
}

/// A fully resolved, executable program image.
#[derive(Debug, Clone, PartialEq)]
pub struct Image {
    /// Classes; the index is the [`ClassId`].
    pub classes: Vec<ClassImage>,
    /// Global method table; the index is the [`MethodId`].
    pub methods: Vec<MethodImage>,
    class_index: HashMap<String, ClassId>,
    main: MethodId,
    shape_fp: u64,
}

/// 64-bit FNV-1a, the fingerprint primitive for memo digests.
#[derive(Clone, Copy)]
pub(crate) struct Fnv(pub u64);

impl Fnv {
    pub(crate) fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    pub(crate) fn byte(&mut self, b: u8) {
        self.0 ^= u64::from(b);
        self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
    }

    pub(crate) fn u64(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.byte(b);
        }
    }

    pub(crate) fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        for b in s.as_bytes() {
            self.byte(*b);
        }
    }
}

impl Image {
    /// Resolves and compiles `program` into an executable image.
    ///
    /// # Errors
    ///
    /// Returns [`BuildError`] for duplicate classes or members, a missing
    /// `static main()`, unresolved names, or ill-formed calls — the
    /// MiniJava analogue of a class-loading/verification failure.
    pub fn build(program: &mjava::Program) -> Result<Image, BuildError> {
        let _span = jtelemetry::span("image_build", Vec::new);
        // Pass 1: class and member skeletons.
        let mut class_index = HashMap::new();
        for (ci, class) in program.classes.iter().enumerate() {
            if class_index.insert(class.name.clone(), ci).is_some() {
                return Err(BuildError::DuplicateClass(class.name.clone()));
            }
        }
        let mut classes = Vec::with_capacity(program.classes.len());
        let mut methods: Vec<MethodImage> = Vec::new();
        for (ci, class) in program.classes.iter().enumerate() {
            let mut seen = std::collections::HashSet::new();
            let mut instance_fields = Vec::new();
            let mut static_fields = Vec::new();
            for field in &class.fields {
                if !seen.insert(field.name.clone()) {
                    return Err(BuildError::DuplicateMember {
                        class: class.name.clone(),
                        member: field.name.clone(),
                    });
                }
                let init = match &field.init {
                    Some(mjava::Expr::Int(v)) => Value::Int(*v as i32),
                    Some(mjava::Expr::Long(v)) => Value::Long(*v),
                    Some(mjava::Expr::Bool(b)) => Value::Bool(*b),
                    Some(mjava::Expr::Null) | None => Value::default_of(&field.ty),
                    Some(_) => Value::default_of(&field.ty),
                };
                let layout = FieldLayout {
                    name: field.name.clone(),
                    ty: field.ty.clone(),
                    init,
                };
                if field.is_static {
                    static_fields.push(layout);
                } else {
                    instance_fields.push(layout);
                }
            }
            let mut method_index = HashMap::new();
            for method in &class.methods {
                if !seen.insert(method.name.clone()) {
                    return Err(BuildError::DuplicateMember {
                        class: class.name.clone(),
                        member: method.name.clone(),
                    });
                }
                let mid = methods.len();
                method_index.insert(method.name.clone(), mid);
                methods.push(MethodImage {
                    class: ci,
                    name: method.name.clone(),
                    is_static: method.is_static,
                    is_sync: method.is_sync,
                    params: method.params.iter().map(|p| p.ty.clone()).collect(),
                    ret: method.ret.clone(),
                    code: Code::default(),
                    code_fp: 0,
                });
            }
            classes.push(ClassImage {
                name: class.name.clone(),
                instance_fields,
                static_fields,
                method_index,
            });
        }
        let main = program
            .main_method()
            .and_then(|(ci, mi_local)| {
                let class = &program.classes[ci];
                classes[ci].method_index.get(&class.methods[mi_local].name)
            })
            .copied()
            .ok_or(BuildError::NoMain)?;

        let mut image = Image {
            classes,
            methods,
            class_index,
            main,
            shape_fp: 0,
        };
        image.shape_fp = image.compute_shape_fp();

        // Pass 2: compile every body against the resolved skeletons. Pass 1
        // numbered the methods in this same order.
        let sources = program.classes.iter().flat_map(|c| &c.methods);
        for (mid, source) in sources.enumerate() {
            let code = compile_method_ast(&image, image.methods[mid].class, source)?;
            image.methods[mid].code_fp = code_fingerprint(&code);
            image.methods[mid].code = code;
        }
        Ok(image)
    }

    /// Fingerprint of everything the threaded-substrate lowering reads
    /// besides the method's own [`Code`]: class names and layouts, static
    /// layouts, method directories, and method signatures. It feeds the
    /// run memo's candidate digest alongside each method's
    /// [`MethodImage::code_fp`]; nothing trusts it without a full compare.
    pub fn shape_fp(&self) -> u64 {
        self.shape_fp
    }

    fn compute_shape_fp(&self) -> u64 {
        let mut h = Fnv::new();
        h.u64(self.classes.len() as u64);
        for class in &self.classes {
            h.str(&class.name);
            h.u64(class.instance_fields.len() as u64);
            for f in &class.instance_fields {
                h.str(&f.name);
            }
            h.u64(class.static_fields.len() as u64);
            for f in &class.static_fields {
                h.str(&f.name);
            }
            // Method directories, in a deterministic order.
            let mut dir: Vec<(&String, &MethodId)> = class.method_index.iter().collect();
            dir.sort();
            h.u64(dir.len() as u64);
            for (name, mid) in dir {
                h.str(name);
                h.u64(*mid as u64);
            }
        }
        h.u64(self.methods.len() as u64);
        for m in &self.methods {
            h.u64(m.class as u64);
            h.str(&m.name);
            h.byte(u8::from(m.is_static));
            h.u64(m.params.len() as u64);
        }
        h.u64(self.main as u64);
        h.0
    }

    /// Looks up a class id by name.
    pub fn class_id(&self, name: &str) -> Option<ClassId> {
        self.class_index.get(name).copied()
    }

    /// Looks up a method id by class and method name.
    pub fn method_id(&self, class: &str, method: &str) -> Option<MethodId> {
        let cid = self.class_id(class)?;
        self.classes[cid].method_index.get(method).copied()
    }

    /// The entry point (`static main`).
    pub fn main(&self) -> MethodId {
        self.main
    }

    /// Replaces a method's executable code — the tier-up operation the
    /// simulated JIT performs after optimizing the method.
    ///
    /// # Panics
    ///
    /// Panics if `method` is out of range.
    pub fn install_code(&mut self, method: MethodId, code: Code) {
        self.methods[method].code_fp = code_fingerprint(&code);
        self.methods[method].code = code;
    }

    /// Initial static field values, per class, for interpreter start-up.
    pub fn static_defaults(&self) -> Vec<Vec<Value>> {
        self.classes
            .iter()
            .map(|c| c.static_fields.iter().map(|f| f.init).collect())
            .collect()
    }
}

/// Content fingerprint of one method's [`Code`] (instructions, operands,
/// and local-slot count). Computed once per install, not per lookup.
pub fn code_fingerprint(code: &Code) -> u64 {
    use crate::code::Instr;
    let mut h = Fnv::new();
    h.u64(code.n_locals as u64);
    h.u64(code.instrs.len() as u64);
    for instr in &code.instrs {
        match instr {
            Instr::ConstI(v) => {
                h.byte(0);
                h.u64(*v as u32 as u64);
            }
            Instr::ConstL(v) => {
                h.byte(1);
                h.u64(*v as u64);
            }
            Instr::ConstB(b) => {
                h.byte(2);
                h.byte(u8::from(*b));
            }
            Instr::ConstNull => h.byte(3),
            Instr::ClassObj(cid) => {
                h.byte(4);
                h.u64(*cid as u64);
            }
            Instr::Load(s) => {
                h.byte(5);
                h.u64(u64::from(*s));
            }
            Instr::Store(s) => {
                h.byte(6);
                h.u64(u64::from(*s));
            }
            Instr::GetField(name) => {
                h.byte(7);
                h.str(name);
            }
            Instr::PutField(name) => {
                h.byte(8);
                h.str(name);
            }
            Instr::GetStatic(cid, off) => {
                h.byte(9);
                h.u64(*cid as u64);
                h.u64(u64::from(*off));
            }
            Instr::PutStatic(cid, off) => {
                h.byte(10);
                h.u64(*cid as u64);
                h.u64(u64::from(*off));
            }
            Instr::Arith(op) => {
                h.byte(11);
                h.byte(*op as u8);
            }
            Instr::Cmp(op) => {
                h.byte(12);
                h.byte(*op as u8);
            }
            Instr::Neg => h.byte(13),
            Instr::Not => h.byte(14),
            Instr::Jump(t) => {
                h.byte(15);
                h.u64(*t as u64);
            }
            Instr::JumpIfFalse(t) => {
                h.byte(16);
                h.u64(*t as u64);
            }
            Instr::Invoke {
                method,
                argc,
                has_recv,
            } => {
                h.byte(17);
                h.u64(*method as u64);
                h.byte(*argc);
                h.byte(u8::from(*has_recv));
            }
            Instr::InvokeVirtual { method, argc } => {
                h.byte(18);
                h.str(method);
                h.byte(*argc);
            }
            Instr::InvokeReflect {
                class,
                method,
                has_recv,
                argc,
            } => {
                h.byte(19);
                h.str(class);
                h.str(method);
                h.byte(u8::from(*has_recv));
                h.byte(*argc);
            }
            Instr::New(cid) => {
                h.byte(20);
                h.u64(*cid as u64);
            }
            Instr::BoxInt => h.byte(21),
            Instr::UnboxInt => h.byte(22),
            Instr::MonitorEnter => h.byte(23),
            Instr::MonitorExit => h.byte(24),
            Instr::Print => h.byte(25),
            Instr::Pop => h.byte(26),
            Instr::Dup => h.byte(27),
            Instr::ReturnV => h.byte(28),
            Instr::Return => h.byte(29),
        }
    }
    h.0
}

#[cfg(test)]
mod tests {
    use super::*;

    fn build(src: &str) -> Result<Image, BuildError> {
        Image::build(&mjava::parse(src).unwrap())
    }

    #[test]
    fn builds_simple_program() {
        let image = build(
            "class T { int f; static long s = 9L; static void main() { } int g(int a) { return a; } }",
        )
        .unwrap();
        assert_eq!(image.classes.len(), 1);
        assert_eq!(image.methods.len(), 2);
        assert_eq!(image.methods[image.main()].name, "main");
        let t = &image.classes[0];
        assert_eq!(t.instance_offset("f"), Some(0));
        assert_eq!(t.static_offset("s"), Some(0));
        assert_eq!(t.static_fields[0].init, Value::Long(9));
        assert!(image.method_id("T", "g").is_some());
        assert!(image.method_id("T", "nope").is_none());
    }

    #[test]
    fn rejects_missing_main() {
        assert_eq!(build("class T { }"), err_kind(BuildError::NoMain));
    }

    fn err_kind(e: BuildError) -> Result<Image, BuildError> {
        Err(e)
    }

    #[test]
    fn rejects_duplicate_class() {
        let r = build("class T { static void main() { } } class T { }");
        assert!(matches!(r, Err(BuildError::DuplicateClass(_))));
    }

    #[test]
    fn rejects_duplicate_member() {
        let r = build("class T { int f; int f; static void main() { } }");
        assert!(matches!(r, Err(BuildError::DuplicateMember { .. })));
    }

    #[test]
    fn fingerprints_are_stable_and_content_sensitive() {
        let src = "class T { int f; static void main() { } int g(int a) { return a + f; } }";
        let a = build(src).unwrap();
        let b = build(src).unwrap();
        assert_eq!(a.shape_fp(), b.shape_fp());
        for mid in 0..a.methods.len() {
            assert_eq!(a.methods[mid].code_fp, b.methods[mid].code_fp);
            assert_eq!(
                a.methods[mid].code_fp,
                code_fingerprint(&a.methods[mid].code)
            );
        }
        let other =
            build("class T { int f; static void main() { } int g(int a) { return a - f; } }")
                .unwrap();
        let g = a.method_id("T", "g").unwrap();
        assert_ne!(a.methods[g].code_fp, other.methods[g].code_fp);
    }

    #[test]
    fn install_code_replaces_code_and_fingerprint() {
        let mut image = build("class T { static void main() { } }").unwrap();
        let before = image.methods[0].clone();
        let body = Code {
            instrs: vec![
                crate::code::Instr::ConstI(7),
                crate::code::Instr::Print,
                crate::code::Instr::Return,
            ],
            n_locals: 0,
            max_stack: 1,
        };
        image.install_code(0, body.clone());
        assert_eq!(image.methods[0].code, body);
        assert_ne!(image.methods[0].code, before.code);
        assert_ne!(image.methods[0].code_fp, before.code_fp);
        assert_eq!(
            image.methods[0].code_fp,
            code_fingerprint(&image.methods[0].code)
        );
    }

    /// Equality covers everything a run reads: an image differing from
    /// another in one installed body, one static initializer, or one
    /// instance field compares unequal, while a separate build of the
    /// same source compares equal.
    #[test]
    fn equality_covers_code_statics_and_fields() {
        let src = "class T { int f; static int s = 4; static void main() { } }";
        let base = build(src).unwrap();
        assert_eq!(base, build(src).unwrap());
        let mut installed = base.clone();
        installed.install_code(
            base.main(),
            Code {
                instrs: vec![crate::code::Instr::Return],
                n_locals: 1,
                max_stack: 0,
            },
        );
        let statics = build("class T { int f; static int s = 5; static void main() { } }").unwrap();
        let field = build("class T { long f; static int s = 4; static void main() { } }").unwrap();
        for (what, other) in [
            ("installed body", installed),
            ("static initializer", statics),
            ("instance field", field),
        ] {
            assert_eq!(other.shape_fp(), base.shape_fp(), "{what}: same shape");
            assert_ne!(other, base, "{what}: must compare unequal");
        }
    }

    #[test]
    fn static_defaults_cover_all_classes() {
        let image = build(
            "class A { static int x = 4; static void main() { } } class B { static boolean b; }",
        )
        .unwrap();
        let defaults = image.static_defaults();
        assert_eq!(defaults[0], vec![Value::Int(4)]);
        assert_eq!(defaults[1], vec![Value::Bool(false)]);
    }
}
