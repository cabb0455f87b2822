//! Offline stand-in for `serde_derive` (see DESIGN.md §9).
//!
//! Implements `#[derive(Serialize)]` and `#[derive(Deserialize)]` against
//! the value-tree model of this workspace's `serde` shim, without `syn` or
//! `quote` (neither is available offline): the derive input is parsed
//! directly from the [`proc_macro::TokenStream`] and the impl is emitted as
//! source text.
//!
//! Supported shapes — exactly what this workspace derives on:
//!
//! - structs with named fields (serialized as objects);
//! - tuple structs (arity 1 as the inner value, arity ≥ 2 as arrays);
//! - enums with unit, tuple, and struct variants (externally tagged:
//!   `"Variant"` / `{"Variant": ...}`);
//! - at most simple type generics (each parameter is bound by the derived
//!   trait).
//!
//! `#[serde(...)]` attributes are refused: a type that needs a custom
//! form implements the traits by hand.

use proc_macro::{Delimiter, TokenStream, TokenTree};

/// Derives `serde::Serialize`.
#[proc_macro_derive(Serialize, attributes(serde))]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    let input = parse(input);
    gen_serialize(&input)
        .parse()
        .expect("generated impl parses")
}

/// Derives `serde::Deserialize`.
#[proc_macro_derive(Deserialize, attributes(serde))]
pub fn derive_deserialize(input: TokenStream) -> TokenStream {
    let input = parse(input);
    gen_deserialize(&input)
        .parse()
        .expect("generated impl parses")
}

struct Input {
    name: String,
    /// Type-parameter identifiers (lifetimes/const params unsupported).
    generics: Vec<String>,
    kind: Kind,
}

enum Kind {
    Named(Vec<String>),
    Tuple(usize),
    Unit,
    Enum(Vec<Variant>),
}

struct Variant {
    name: String,
    kind: VariantKind,
}

enum VariantKind {
    Unit,
    Tuple(usize),
    Struct(Vec<String>),
}

// ---------------------------------------------------------------- parsing

fn parse(input: TokenStream) -> Input {
    let tokens: Vec<TokenTree> = input.into_iter().collect();
    let mut i = 0;

    // Outer attributes, refusing #[serde(...)].
    while matches!(&tokens.get(i), Some(TokenTree::Punct(p)) if p.as_char() == '#') {
        if let Some(TokenTree::Group(g)) = tokens.get(i + 1) {
            if matches!(g.stream().into_iter().next(), Some(TokenTree::Ident(id)) if id.to_string() == "serde")
            {
                panic!("#[serde(...)] attributes are unsupported by the shim derive");
            }
        }
        i += 2;
    }
    // Visibility.
    if matches!(&tokens.get(i), Some(TokenTree::Ident(id)) if id.to_string() == "pub") {
        i += 1;
        if matches!(&tokens.get(i), Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis)
        {
            i += 1;
        }
    }
    let is_enum = match &tokens[i] {
        TokenTree::Ident(id) if id.to_string() == "struct" => false,
        TokenTree::Ident(id) if id.to_string() == "enum" => true,
        other => panic!("derive expects struct or enum, found {other}"),
    };
    i += 1;
    let name = match &tokens[i] {
        TokenTree::Ident(id) => id.to_string(),
        other => panic!("expected type name, found {other}"),
    };
    i += 1;

    // Generics: collect top-level parameter idents between < and >.
    let mut generics = Vec::new();
    if matches!(&tokens.get(i), Some(TokenTree::Punct(p)) if p.as_char() == '<') {
        i += 1;
        let mut depth = 1usize;
        let mut expecting_param = true;
        while depth > 0 {
            match &tokens[i] {
                TokenTree::Punct(p) if p.as_char() == '<' => depth += 1,
                TokenTree::Punct(p) if p.as_char() == '>' => depth -= 1,
                TokenTree::Punct(p) if p.as_char() == ',' && depth == 1 => {
                    expecting_param = true;
                }
                TokenTree::Punct(p) if p.as_char() == '\'' => {
                    panic!("lifetime parameters are not supported by the serde shim derive")
                }
                TokenTree::Ident(id) if depth == 1 && expecting_param => {
                    generics.push(id.to_string());
                    expecting_param = false;
                }
                _ => {}
            }
            i += 1;
        }
    }
    // Optional where-clause: skip to the body/semicolon.
    while !matches!(&tokens.get(i), Some(TokenTree::Group(g)) if g.delimiter() != Delimiter::Bracket)
        && !matches!(&tokens.get(i), Some(TokenTree::Punct(p)) if p.as_char() == ';')
    {
        i += 1;
        if i >= tokens.len() {
            panic!("derive input for {name} ended before a body");
        }
    }

    let kind = match &tokens[i] {
        TokenTree::Punct(_) => Kind::Unit,
        TokenTree::Group(g) if g.delimiter() == Delimiter::Parenthesis => {
            Kind::Tuple(count_tuple_fields(g.stream()))
        }
        TokenTree::Group(g) if g.delimiter() == Delimiter::Brace => {
            if is_enum {
                Kind::Enum(parse_variants(g.stream()))
            } else {
                Kind::Named(parse_named_fields(g.stream()))
            }
        }
        other => panic!("unexpected token {other} in derive input for {name}"),
    };

    Input {
        name,
        generics,
        kind,
    }
}

/// Counts comma-separated fields at angle-bracket depth 0.
fn count_tuple_fields(stream: TokenStream) -> usize {
    let tokens: Vec<TokenTree> = stream.into_iter().collect();
    if tokens.is_empty() {
        return 0;
    }
    let mut fields = 1;
    let mut depth = 0i32;
    let mut trailing_comma = false;
    for t in &tokens {
        trailing_comma = false;
        if let TokenTree::Punct(p) = t {
            match p.as_char() {
                '<' => depth += 1,
                '>' => depth -= 1,
                ',' if depth == 0 => {
                    fields += 1;
                    trailing_comma = true;
                }
                _ => {}
            }
        }
    }
    fields - usize::from(trailing_comma)
}

fn parse_named_fields(stream: TokenStream) -> Vec<String> {
    let tokens: Vec<TokenTree> = stream.into_iter().collect();
    let mut fields = Vec::new();
    let mut i = 0;
    while i < tokens.len() {
        // Field attributes and doc comments.
        while matches!(&tokens.get(i), Some(TokenTree::Punct(p)) if p.as_char() == '#') {
            i += 2;
        }
        if i >= tokens.len() {
            break;
        }
        // Visibility.
        if matches!(&tokens[i], TokenTree::Ident(id) if id.to_string() == "pub") {
            i += 1;
            if matches!(&tokens.get(i), Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis)
            {
                i += 1;
            }
        }
        match &tokens[i] {
            TokenTree::Ident(id) => fields.push(id.to_string()),
            other => panic!("expected field name, found {other}"),
        }
        i += 1; // name
        i += 1; // ':'
                // Skip the type up to the next depth-0 comma.
        let mut depth = 0i32;
        while i < tokens.len() {
            match &tokens[i] {
                TokenTree::Punct(p) if p.as_char() == '<' => depth += 1,
                TokenTree::Punct(p) if p.as_char() == '>' => depth -= 1,
                TokenTree::Punct(p) if p.as_char() == ',' && depth == 0 => {
                    i += 1;
                    break;
                }
                _ => {}
            }
            i += 1;
        }
    }
    fields
}

fn parse_variants(stream: TokenStream) -> Vec<Variant> {
    let tokens: Vec<TokenTree> = stream.into_iter().collect();
    let mut variants = Vec::new();
    let mut i = 0;
    while i < tokens.len() {
        while matches!(&tokens.get(i), Some(TokenTree::Punct(p)) if p.as_char() == '#') {
            i += 2;
        }
        if i >= tokens.len() {
            break;
        }
        let name = match &tokens[i] {
            TokenTree::Ident(id) => id.to_string(),
            other => panic!("expected variant name, found {other}"),
        };
        i += 1;
        let kind = match tokens.get(i) {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                i += 1;
                VariantKind::Tuple(count_tuple_fields(g.stream()))
            }
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                i += 1;
                VariantKind::Struct(parse_named_fields(g.stream()))
            }
            _ => VariantKind::Unit,
        };
        // Skip to the next variant (handles discriminants, trailing comma).
        while i < tokens.len() && !matches!(&tokens[i], TokenTree::Punct(p) if p.as_char() == ',') {
            i += 1;
        }
        i += 1;
        variants.push(Variant { name, kind });
    }
    variants
}

// ------------------------------------------------------------ generation

impl Input {
    /// `("<T: ::serde::Serialize>", "<T>")` — impl generics and type args.
    fn generics_for(&self, bound: &str) -> (String, String) {
        if self.generics.is_empty() {
            return (String::new(), String::new());
        }
        let bounded: Vec<String> = self
            .generics
            .iter()
            .map(|g| format!("{g}: {bound}"))
            .collect();
        (
            format!("<{}>", bounded.join(", ")),
            format!("<{}>", self.generics.join(", ")),
        )
    }
}

fn gen_serialize(input: &Input) -> String {
    let (impl_generics, ty_generics) = input.generics_for("::serde::Serialize");
    let name = &input.name;
    let body = match &input.kind {
        Kind::Named(fields) => {
            let entries: Vec<String> = fields
                .iter()
                .map(|f| {
                    format!(
                        "(::std::string::String::from(\"{f}\"), \
                             ::serde::Serialize::to_value(&self.{f}))"
                    )
                })
                .collect();
            format!(
                "::serde::Value::Object(::std::vec![{}])",
                entries.join(", ")
            )
        }
        Kind::Tuple(1) => "::serde::Serialize::to_value(&self.0)".to_string(),
        Kind::Tuple(n) => {
            let items: Vec<String> = (0..*n)
                .map(|i| format!("::serde::Serialize::to_value(&self.{i})"))
                .collect();
            format!("::serde::Value::Array(::std::vec![{}])", items.join(", "))
        }
        Kind::Unit => "::serde::Value::Null".to_string(),
        Kind::Enum(variants) => {
            let arms: Vec<String> = variants
                .iter()
                .map(|v| {
                    let vn = &v.name;
                    match &v.kind {
                        VariantKind::Unit => format!(
                            "{name}::{vn} => \
                                 ::serde::Value::String(::std::string::String::from(\"{vn}\"))"
                        ),
                        VariantKind::Tuple(1) => format!(
                            "{name}::{vn}(f0) => ::serde::Value::Object(::std::vec![(\
                                 ::std::string::String::from(\"{vn}\"), \
                                 ::serde::Serialize::to_value(f0))])"
                        ),
                        VariantKind::Tuple(n) => {
                            let binds: Vec<String> = (0..*n).map(|i| format!("f{i}")).collect();
                            let items: Vec<String> = (0..*n)
                                .map(|i| format!("::serde::Serialize::to_value(f{i})"))
                                .collect();
                            format!(
                                "{name}::{vn}({}) => ::serde::Value::Object(::std::vec![(\
                                     ::std::string::String::from(\"{vn}\"), \
                                     ::serde::Value::Array(::std::vec![{}]))])",
                                binds.join(", "),
                                items.join(", ")
                            )
                        }
                        VariantKind::Struct(fields) => {
                            let entries: Vec<String> = fields
                                .iter()
                                .map(|f| {
                                    format!(
                                        "(::std::string::String::from(\"{f}\"), \
                                             ::serde::Serialize::to_value({f}))"
                                    )
                                })
                                .collect();
                            format!(
                                "{name}::{vn} {{ {} }} => ::serde::Value::Object(::std::vec![(\
                                     ::std::string::String::from(\"{vn}\"), \
                                     ::serde::Value::Object(::std::vec![{}]))])",
                                fields.join(", "),
                                entries.join(", ")
                            )
                        }
                    }
                })
                .collect();
            format!("match self {{ {} }}", arms.join(", "))
        }
    };
    format!(
        "#[automatically_derived]\n\
         impl{impl_generics} ::serde::Serialize for {name}{ty_generics} {{\n\
             fn to_value(&self) -> ::serde::Value {{\n{body}\n}}\n\
         }}"
    )
}

fn gen_deserialize(input: &Input) -> String {
    let (impl_generics, ty_generics) = input.generics_for("::serde::Deserialize");
    let name = &input.name;
    let body = match &input.kind {
        Kind::Named(fields) => gen_de_named(name, fields, "v"),
        Kind::Tuple(1) => {
            format!("::std::result::Result::Ok({name}(::serde::Deserialize::from_value(v)?))")
        }
        Kind::Tuple(n) => gen_de_tuple(name, *n, "v"),
        Kind::Unit => format!("::std::result::Result::Ok({name})"),
        Kind::Enum(variants) => {
            let unit_arms: Vec<String> = variants
                .iter()
                .filter(|v| matches!(v.kind, VariantKind::Unit))
                .map(|v| {
                    format!(
                        "\"{vn}\" => ::std::result::Result::Ok({name}::{vn}),",
                        vn = v.name
                    )
                })
                .collect();
            let data_arms: Vec<String> = variants
                .iter()
                .filter_map(|v| {
                    let vn = &v.name;
                    let path = format!("{name}::{vn}");
                    match &v.kind {
                        VariantKind::Unit => None,
                        VariantKind::Tuple(1) => Some(format!(
                            "\"{vn}\" => ::std::result::Result::Ok(\
                                 {path}(::serde::Deserialize::from_value(val)?)),"
                        )),
                        VariantKind::Tuple(n) => Some(format!(
                            "\"{vn}\" => {{ {} }}",
                            gen_de_tuple(&path, *n, "val")
                        )),
                        VariantKind::Struct(fields) => Some(format!(
                            "\"{vn}\" => {{ {} }}",
                            gen_de_named(&path, fields, "val")
                        )),
                    }
                })
                .collect();
            format!(
                "match v {{\n\
                       ::serde::Value::String(s) => match s.as_str() {{\n\
                         {unit}\n\
                         other => ::std::result::Result::Err(\
                           ::std::format!(\"unknown {name} variant `{{other}}`\")),\n\
                       }},\n\
                       ::serde::Value::Object(pairs) if pairs.len() == 1 => {{\n\
                         let (tag, val) = &pairs[0];\n\
                         match tag.as_str() {{\n\
                           {data}\n\
                           other => ::std::result::Result::Err(\
                             ::std::format!(\"unknown {name} variant `{{other}}`\")),\n\
                         }}\n\
                       }},\n\
                       other => ::std::result::Result::Err(\
                         ::std::format!(\"expected {name}, got {{other:?}}\")),\n\
                     }}",
                unit = unit_arms.join("\n"),
                data = data_arms.join("\n"),
            )
        }
    };
    format!(
        "#[automatically_derived]\n\
         impl{impl_generics} ::serde::Deserialize for {name}{ty_generics} {{\n\
             fn from_value(v: &::serde::Value) -> ::std::result::Result<Self, ::serde::Error> {{\n\
                 {body}\n\
             }}\n\
         }}"
    )
}

/// `Ok(Path { f: from_value(get_field(obj, "f")?)?, ... })` over `src`.
fn gen_de_named(path: &str, fields: &[String], src: &str) -> String {
    let inits: Vec<String> = fields
        .iter()
        .map(|f| {
            format!("{f}: ::serde::Deserialize::from_value(::serde::get_field(obj, \"{f}\")?)?,")
        })
        .collect();
    format!(
        "let obj = match {src} {{\n\
           ::serde::Value::Object(m) => m,\n\
           other => return ::std::result::Result::Err(\
             ::std::format!(\"expected object for {path}, got {{other:?}}\")),\n\
         }};\n\
         ::std::result::Result::Ok({path} {{ {} }})",
        inits.join(" ")
    )
}

/// `Ok(Path(from_value(&items[0])?, ...))` over `src`.
fn gen_de_tuple(path: &str, n: usize, src: &str) -> String {
    let inits: Vec<String> = (0..n)
        .map(|i| format!("::serde::Deserialize::from_value(&items[{i}])?"))
        .collect();
    format!(
        "let items = match {src} {{\n\
           ::serde::Value::Array(a) if a.len() == {n} => a,\n\
           other => return ::std::result::Result::Err(\
             ::std::format!(\"expected {n}-element array for {path}, got {{other:?}}\")),\n\
         }};\n\
         ::std::result::Result::Ok({path}({}))",
        inits.join(", ")
    )
}
