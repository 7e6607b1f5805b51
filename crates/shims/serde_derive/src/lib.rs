//! Offline shim for `serde_derive`: real `Serialize`/`Deserialize` derives.
//!
//! The derives target the shim `serde`'s data model — a JSON `Value`
//! tree, and JSON text streamed through its `JsonWriter` — and mirror
//! real serde's default encodings: structs as objects, newtype
//! structs transparent, tuple structs as arrays, enums externally tagged.
//! The input is parsed directly from the token stream (no `syn`/`quote`
//! in an offline environment), which restricts derives to non-generic
//! types — everything the workspace derives on qualifies. Attributes
//! (`#[serde(...)]` included) are ignored.

use proc_macro::{Delimiter, TokenStream, TokenTree};

/// Derives `serde::Serialize` (shim edition: `fn to_value(&self) -> Value`
/// and the streaming `fn write_json(&self, &mut JsonWriter)`).
#[proc_macro_derive(Serialize)]
pub fn derive_serialize(item: TokenStream) -> TokenStream {
    let input = parse_input(item);
    gen_serialize(&input)
        .parse()
        .expect("shim serde_derive generated invalid Rust for Serialize")
}

/// Derives `serde::Deserialize` (shim edition: `fn from_value(&Value)`).
#[proc_macro_derive(Deserialize)]
pub fn derive_deserialize(item: TokenStream) -> TokenStream {
    let input = parse_input(item);
    gen_deserialize(&input)
        .parse()
        .expect("shim serde_derive generated invalid Rust for Deserialize")
}

// --------------------------------------------------------------- parsing

enum Fields {
    Unit,
    Named(Vec<String>),
    Tuple(usize),
}

enum Kind {
    Struct(Fields),
    Enum(Vec<(String, Fields)>),
}

struct Input {
    name: String,
    kind: Kind,
}

/// Skips outer attributes (`#[...]`) and a visibility modifier
/// (`pub`, `pub(...)`) starting at `i`; returns the next index.
fn skip_attrs_and_vis(tokens: &[TokenTree], mut i: usize) -> usize {
    loop {
        match tokens.get(i) {
            Some(TokenTree::Punct(p)) if p.as_char() == '#' => {
                // `#` followed by a bracketed attribute group.
                i += 2;
            }
            Some(TokenTree::Ident(id)) if id.to_string() == "pub" => {
                i += 1;
                if let Some(TokenTree::Group(g)) = tokens.get(i) {
                    if g.delimiter() == Delimiter::Parenthesis {
                        i += 1;
                    }
                }
            }
            _ => return i,
        }
    }
}

fn parse_input(item: TokenStream) -> Input {
    let tokens: Vec<TokenTree> = item.into_iter().collect();
    let mut i = skip_attrs_and_vis(&tokens, 0);
    let keyword = match tokens.get(i) {
        Some(TokenTree::Ident(id)) => id.to_string(),
        other => panic!("shim serde_derive: expected `struct` or `enum`, found {other:?}"),
    };
    i += 1;
    let name = match tokens.get(i) {
        Some(TokenTree::Ident(id)) => id.to_string(),
        other => panic!("shim serde_derive: expected a type name, found {other:?}"),
    };
    i += 1;
    if let Some(TokenTree::Punct(p)) = tokens.get(i) {
        if p.as_char() == '<' {
            panic!("shim serde_derive does not support generic types (deriving on `{name}`)");
        }
    }
    let kind = match keyword.as_str() {
        "struct" => Kind::Struct(match tokens.get(i) {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                Fields::Named(parse_named_fields(g.stream()))
            }
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                Fields::Tuple(count_tuple_fields(g.stream()))
            }
            Some(TokenTree::Punct(p)) if p.as_char() == ';' => Fields::Unit,
            other => panic!("shim serde_derive: unsupported struct body {other:?}"),
        }),
        "enum" => match tokens.get(i) {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                Kind::Enum(parse_variants(g.stream()))
            }
            other => panic!("shim serde_derive: expected an enum body, found {other:?}"),
        },
        other => panic!("shim serde_derive: cannot derive for `{other}` items"),
    };
    Input { name, kind }
}

/// Field names of a named-field body. Types are irrelevant: the generated
/// code relies on inference, so only the identifiers before each top-level
/// `:` are collected (tracking `<...>` depth to skip commas inside
/// generic arguments).
fn parse_named_fields(stream: TokenStream) -> Vec<String> {
    let tokens: Vec<TokenTree> = stream.into_iter().collect();
    let mut fields = Vec::new();
    let mut i = 0;
    while i < tokens.len() {
        i = skip_attrs_and_vis(&tokens, i);
        let name = match tokens.get(i) {
            Some(TokenTree::Ident(id)) => id.to_string(),
            None => break,
            other => panic!("shim serde_derive: expected a field name, found {other:?}"),
        };
        fields.push(name);
        let mut angle = 0i64;
        while i < tokens.len() {
            match &tokens[i] {
                TokenTree::Punct(p) if p.as_char() == '<' => angle += 1,
                TokenTree::Punct(p) if p.as_char() == '>' => angle -= 1,
                TokenTree::Punct(p) if p.as_char() == ',' && angle == 0 => {
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

/// Arity of a tuple body (top-level comma count, ignoring a trailing one).
fn count_tuple_fields(stream: TokenStream) -> usize {
    let tokens: Vec<TokenTree> = stream.into_iter().collect();
    if tokens.is_empty() {
        return 0;
    }
    let mut count = 1;
    let mut angle = 0i64;
    for (idx, token) in tokens.iter().enumerate() {
        match token {
            TokenTree::Punct(p) if p.as_char() == '<' => angle += 1,
            TokenTree::Punct(p) if p.as_char() == '>' => angle -= 1,
            TokenTree::Punct(p) if p.as_char() == ',' && angle == 0 && idx + 1 < tokens.len() => {
                count += 1;
            }
            _ => {}
        }
    }
    count
}

fn parse_variants(stream: TokenStream) -> Vec<(String, Fields)> {
    let tokens: Vec<TokenTree> = stream.into_iter().collect();
    let mut variants = Vec::new();
    let mut i = 0;
    while i < tokens.len() {
        i = skip_attrs_and_vis(&tokens, i);
        let name = match tokens.get(i) {
            Some(TokenTree::Ident(id)) => id.to_string(),
            None => break,
            other => panic!("shim serde_derive: expected a variant name, found {other:?}"),
        };
        i += 1;
        let fields = match tokens.get(i) {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                i += 1;
                Fields::Named(parse_named_fields(g.stream()))
            }
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                i += 1;
                Fields::Tuple(count_tuple_fields(g.stream()))
            }
            _ => Fields::Unit,
        };
        match tokens.get(i) {
            Some(TokenTree::Punct(p)) if p.as_char() == ',' => i += 1,
            Some(TokenTree::Punct(p)) if p.as_char() == '=' => {
                panic!("shim serde_derive does not support explicit enum discriminants")
            }
            None => {}
            other => panic!("shim serde_derive: unexpected token after a variant: {other:?}"),
        }
        variants.push((name, fields));
    }
    variants
}

// ----------------------------------------------------------- generation

fn gen_serialize(input: &Input) -> String {
    let name = &input.name;
    let body = match &input.kind {
        Kind::Struct(Fields::Unit) => "::serde::Value::Null".to_string(),
        Kind::Struct(Fields::Named(fields)) => {
            let pairs: Vec<String> = fields
                .iter()
                .map(|f| {
                    format!(
                        "(::std::string::String::from(\"{f}\"), \
                         ::serde::Serialize::to_value(&self.{f}))"
                    )
                })
                .collect();
            format!("::serde::Value::Object(::std::vec![{}])", pairs.join(", "))
        }
        Kind::Struct(Fields::Tuple(1)) => "::serde::Serialize::to_value(&self.0)".to_string(),
        Kind::Struct(Fields::Tuple(arity)) => {
            let items: Vec<String> = (0..*arity)
                .map(|i| format!("::serde::Serialize::to_value(&self.{i})"))
                .collect();
            format!("::serde::Value::Array(::std::vec![{}])", items.join(", "))
        }
        Kind::Enum(variants) => {
            let arms: Vec<String> = variants
                .iter()
                .map(|(variant, fields)| match fields {
                    Fields::Unit => {
                        format!("{name}::{variant} => ::serde::derive::unit_variant(\"{variant}\")")
                    }
                    Fields::Tuple(1) => format!(
                        "{name}::{variant}(__f0) => ::serde::derive::newtype_variant(\
                         \"{variant}\", ::serde::Serialize::to_value(__f0))"
                    ),
                    Fields::Tuple(arity) => {
                        let binds: Vec<String> = (0..*arity).map(|i| format!("__f{i}")).collect();
                        let items: Vec<String> = binds
                            .iter()
                            .map(|b| format!("::serde::Serialize::to_value({b})"))
                            .collect();
                        format!(
                            "{name}::{variant}({}) => ::serde::derive::tuple_variant(\
                             \"{variant}\", ::std::vec![{}])",
                            binds.join(", "),
                            items.join(", ")
                        )
                    }
                    Fields::Named(fields) => {
                        let binds = fields.join(", ");
                        let pairs: Vec<String> = fields
                            .iter()
                            .map(|f| {
                                format!(
                                    "(::std::string::String::from(\"{f}\"), \
                                     ::serde::Serialize::to_value({f}))"
                                )
                            })
                            .collect();
                        format!(
                            "{name}::{variant} {{ {binds} }} => \
                             ::serde::derive::struct_variant(\"{variant}\", ::std::vec![{}])",
                            pairs.join(", ")
                        )
                    }
                })
                .collect();
            format!("match self {{ {} }}", arms.join(", "))
        }
    };
    let write = gen_write_json(input);
    format!(
        "#[automatically_derived]\n\
         #[allow(clippy::all)]\n\
         impl ::serde::Serialize for {name} {{\n\
             fn to_value(&self) -> ::serde::Value {{ {body} }}\n\
             fn write_json(&self, __w: &mut ::serde::JsonWriter) {{ {write} }}\n\
         }}\n"
    )
}

/// The body of the derived `write_json`: the same encoding as the
/// derived `to_value`, streamed into the writer `__w`.
fn gen_write_json(input: &Input) -> String {
    let name = &input.name;
    let field = |key: &str, expr: &str| format!("__w.field(\"{key}\", {expr});");
    let item = |expr: &str| format!("::serde::Serialize::write_json({expr}, __w);");
    let array =
        |items: Vec<String>| format!("__w.begin_array(); {} __w.end_array();", items.concat());
    let object = |members: String| format!("__w.begin_object(); {members} __w.end_object();");
    match &input.kind {
        Kind::Struct(Fields::Unit) => "__w.null();".to_string(),
        Kind::Struct(Fields::Named(fields)) => object(
            fields
                .iter()
                .map(|f| field(f, &format!("&self.{f}")))
                .collect(),
        ),
        Kind::Struct(Fields::Tuple(1)) => item("&self.0"),
        Kind::Struct(Fields::Tuple(arity)) => {
            array((0..*arity).map(|i| item(&format!("&self.{i}"))).collect())
        }
        Kind::Enum(variants) => {
            let arms: Vec<String> = variants
                .iter()
                .map(|(variant, fields)| match fields {
                    Fields::Unit => format!("{name}::{variant} => __w.str(\"{variant}\"),"),
                    Fields::Tuple(1) => format!(
                        "{name}::{variant}(__f0) => {{ {} }}",
                        object(field(variant, "__f0"))
                    ),
                    Fields::Tuple(arity) => {
                        let binds: Vec<String> = (0..*arity).map(|i| format!("__f{i}")).collect();
                        let items = array(binds.iter().map(|b| item(b)).collect());
                        format!(
                            "{name}::{variant}({}) => {{ {} }}",
                            binds.join(", "),
                            object(format!("__w.key(\"{variant}\"); {items}"))
                        )
                    }
                    Fields::Named(fields) => {
                        let members = object(fields.iter().map(|f| field(f, f)).collect());
                        format!(
                            "{name}::{variant} {{ {} }} => {{ {} }}",
                            fields.join(", "),
                            object(format!("__w.key(\"{variant}\"); {members}"))
                        )
                    }
                })
                .collect();
            format!("match self {{ {} }}", arms.join(" "))
        }
    }
}

fn gen_deserialize(input: &Input) -> String {
    let name = &input.name;
    let body = match &input.kind {
        Kind::Struct(Fields::Unit) => format!("::std::result::Result::Ok({name})"),
        Kind::Struct(Fields::Named(fields)) => {
            let inits: Vec<String> = fields
                .iter()
                .map(|f| format!("{f}: ::serde::derive::field(__value, \"{name}\", \"{f}\")?"))
                .collect();
            format!(
                "::std::result::Result::Ok({name} {{ {} }})",
                inits.join(", ")
            )
        }
        Kind::Struct(Fields::Tuple(arity)) => {
            let items: Vec<String> = (0..*arity)
                .map(|i| {
                    format!("::serde::derive::tuple_field(__value, \"{name}\", {i}, {arity})?")
                })
                .collect();
            format!("::std::result::Result::Ok({name}({}))", items.join(", "))
        }
        Kind::Enum(variants) => {
            let arms: Vec<String> = variants
                .iter()
                .map(|(variant, fields)| match fields {
                    Fields::Unit => {
                        format!("\"{variant}\" => ::std::result::Result::Ok({name}::{variant})")
                    }
                    Fields::Tuple(1) => format!(
                        "\"{variant}\" => ::std::result::Result::Ok({name}::{variant}(\
                         ::serde::derive::de(::serde::derive::content(\
                         __content, \"{name}::{variant}\")?)?))"
                    ),
                    Fields::Tuple(arity) => {
                        let items: Vec<String> = (0..*arity)
                            .map(|i| {
                                format!(
                                    "::serde::derive::tuple_field(\
                                     __c, \"{name}::{variant}\", {i}, {arity})?"
                                )
                            })
                            .collect();
                        format!(
                            "\"{variant}\" => {{ \
                             let __c = ::serde::derive::content(__content, \"{name}::{variant}\")?; \
                             ::std::result::Result::Ok({name}::{variant}({})) }}",
                            items.join(", ")
                        )
                    }
                    Fields::Named(fields) => {
                        let inits: Vec<String> = fields
                            .iter()
                            .map(|f| {
                                format!(
                                    "{f}: ::serde::derive::field(\
                                     __c, \"{name}::{variant}\", \"{f}\")?"
                                )
                            })
                            .collect();
                        format!(
                            "\"{variant}\" => {{ \
                             let __c = ::serde::derive::content(__content, \"{name}::{variant}\")?; \
                             ::std::result::Result::Ok({name}::{variant} {{ {} }}) }}",
                            inits.join(", ")
                        )
                    }
                })
                .collect();
            format!(
                "let (__tag, __content) = ::serde::derive::variant_parts(__value, \"{name}\")?;\n\
                 match __tag {{\n\
                     {},\n\
                     __other => ::std::result::Result::Err(::serde::Error::custom(\
                         ::std::format!(\"unknown variant `{{}}` of `{name}`\", __other))),\n\
                 }}",
                arms.join(",\n")
            )
        }
    };
    format!(
        "#[automatically_derived]\n\
         #[allow(clippy::all, unused_variables)]\n\
         impl<'de> ::serde::Deserialize<'de> for {name} {{\n\
             fn from_value(__value: &::serde::Value) \
                 -> ::std::result::Result<Self, ::serde::Error> {{\n\
                 {body}\n\
             }}\n\
         }}\n"
    )
}
