#ifndef MDDC_MDQL_PARSER_H_
#define MDDC_MDQL_PARSER_H_

#include <string>

#include "common/result.h"
#include "mdql/ast.h"

namespace mddc {
namespace mdql {

/// Parses one MDQL statement. Grammar (keywords case-insensitive,
/// identifiers bare or double-quoted, strings single-quoted):
///
///   statement  := select | show | insert
///   select     := SELECT agg (',' agg)* FROM ident
///                 (BY group (',' group)*)?
///                 (WHERE atom (AND atom)*)?
///                 (ASOF string)?
///   agg        := COUNT | fn '(' ident ')'        fn in COUNT|SUM|AVG|
///                                                 MIN|MAX (identifiers)
///   group      := ident '.' ident (AS ident)?
///   atom       := (NOT)? ident '.' ident '=' string
///               | (NOT)? ident cmp number
///               | PROB '(' ident '.' ident '=' string ')' '>=' number
///   cmp        := '=' | '<>' | '<' | '<=' | '>' | '>='
///   show       := SHOW DIMENSIONS FROM ident
///               | SHOW HIERARCHY ident FROM ident
///   insert     := INSERT INTO ident FACT number
///                 '(' assign (',' assign)* ')'
///   assign     := ident '.' ident '=' string (PROB number)?
///
/// A WHERE clause may nest parentheses at most 128 levels deep; deeper
/// nesting is an InvalidArgument error, never unbounded recursion.
Result<Statement> Parse(const std::string& source);

}  // namespace mdql
}  // namespace mddc

#endif  // MDDC_MDQL_PARSER_H_
