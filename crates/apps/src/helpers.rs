//! The shared "framework prelude" every application script runs.
//!
//! Real LAMP applications spend most of their instructions in
//! request-independent framework code — configuration, localization,
//! permission tables, skin/chrome rendering (MediaWiki invokes 74k lines
//! for a page view, §5.4). That is precisely why the paper observes
//! α > 0.95: the bulk of each request's instructions are identical
//! across the group and execute univalently (§5.2, Fig. 11).
//!
//! Our hand-written applications would otherwise be almost entirely
//! data-dependent, which would understate α and the dedup opportunity.
//! The prelude reproduces the framework share: several hundred
//! input-independent instructions per request (config construction,
//! message catalog, permission checks, navigation/chrome rendering, and
//! a small "template compilation" loop), all of which collapse to
//! univalues during grouped re-execution.

/// Builds a full script: prelude functions + prelude invocation +
/// the page body. `site` names the application in the rendered chrome.
pub fn with_prelude(site: &str, body: &str) -> String {
    format!(
        r#"<?php
function db_quote($s) {{
    return "'" . str_replace("'", "''", strval($s)) . "'";
}}
function site_config() {{
    $cfg = array();
    $cfg['name'] = '{site}';
    $cfg['version'] = '1.26.2';
    $cfg['lang'] = 'en';
    $cfg['charset'] = 'UTF-8';
    $cfg['skin'] = 'vector';
    $cfg['cache_ttl'] = 3600;
    $cfg['debug'] = false;
    $cfg['read_only'] = false;
    $cfg['max_upload'] = 8388608;
    $cfg['timezone'] = 'UTC';
    $cfg['namespaces'] = array('Main', 'Talk', 'User', 'Help', 'Project', 'Template', 'Category', 'Special');
    $cfg['rights'] = array('read' => 1, 'edit' => 1, 'move' => 1, 'delete' => 0, 'protect' => 0, 'admin' => 0);
    $cfg['extensions'] = array('parser', 'cache', 'search', 'diff', 'history', 'watchlist');
    return $cfg;
}}
function i18n_messages() {{
    $m = array();
    $m['home'] = 'Home';
    $m['search'] = 'Search';
    $m['login'] = 'Log in';
    $m['logout'] = 'Log out';
    $m['edit'] = 'Edit';
    $m['history'] = 'History';
    $m['talk'] = 'Discussion';
    $m['contents'] = 'Contents';
    $m['recent'] = 'Recent changes';
    $m['random'] = 'Random page';
    $m['help'] = 'Help';
    $m['tools'] = 'Tools';
    $m['print'] = 'Printable version';
    $m['permalink'] = 'Permanent link';
    $m['info'] = 'Page information';
    $m['footer'] = 'Content is available under the license.';
    $m['privacy'] = 'Privacy policy';
    $m['about'] = 'About';
    $m['disclaimer'] = 'Disclaimers';
    $m['ns_prefix'] = 'ns-';
    return $m;
}}
function check_permission($cfg, $action) {{
    $allowed = 0;
    foreach ($cfg['rights'] as $right => $granted) {{
        if ($right === $action && $granted) {{
            $allowed = 1;
        }}
    }}
    return $allowed;
}}
function compile_templates($cfg) {{
    $templates = array();
    $parts = array('header', 'sidebar', 'content', 'toc', 'footer', 'search', 'notice', 'badge');
    foreach ($parts as $p) {{
        $checksum = 0;
        $name = $p . '.tpl';
        for ($i = 0; $i < strlen($name); $i++) {{
            $checksum = ($checksum * 31 + $i * 7) % 65521;
        }}
        $templates[$p] = $name . ':' . $checksum . ':' . $cfg['version'];
    }}
    return $templates;
}}
function render_chrome($cfg, $m, $templates) {{
    $out = '<!DOCTYPE html><html lang="' . $cfg['lang'] . '"><head>';
    $out .= '<meta charset="' . $cfg['charset'] . '"/>';
    $out .= '<link rel="stylesheet" href="/skins/' . $cfg['skin'] . '.css"/>';
    $out .= '</head><body class="skin-' . $cfg['skin'] . '">';
    $out .= '<div id="banner">' . htmlspecialchars($cfg['name']) . '</div>';
    $out .= '<ul id="nav">';
    $navs = array('home', 'contents', 'recent', 'random', 'help');
    foreach ($navs as $n) {{
        $out .= '<li class="nav-' . $n . '">' . $m[$n] . '</li>';
    }}
    $out .= '</ul><ul id="ns">';
    foreach ($cfg['namespaces'] as $ns) {{
        $out .= '<li>' . $m['ns_prefix'] . strtolower($ns) . '</li>';
    }}
    $out .= '</ul><ul id="tools">';
    $tools = array('print', 'permalink', 'info');
    foreach ($tools as $t) {{
        $out .= '<li>' . $m[$t] . '</li>';
    }}
    $out .= '</ul>';
    $badge = 0;
    foreach ($templates as $p => $sig) {{
        $badge = ($badge + strlen($sig)) % 997;
    }}
    $out .= '<div id="gen" data-badge="' . $badge . '"></div>';
    return $out;
}}
function render_footer($cfg, $m) {{
    $out = '<div id="footer"><p>' . $m['footer'] . '</p><ul>';
    $links = array('privacy', 'about', 'disclaimer');
    foreach ($links as $l) {{
        $out .= '<li>' . $m[$l] . '</li>';
    }}
    $out .= '</ul><span class="v">v' . $cfg['version'] . '</span></div></body></html>';
    return $out;
}}
$CFG = site_config();
$MSG = i18n_messages();
$TPL = compile_templates($CFG);
if (!check_permission($CFG, 'read')) {{
    http_response_code(403);
    die('forbidden');
}}
$CHROME = render_chrome($CFG, $MSG, $TPL);
$FOOTER = render_footer($CFG, $MSG);
{body}
"#
    )
}

#[cfg(test)]
mod tests {
    use orochi_php::{compile, parse_script};

    #[test]
    fn prelude_compiles_and_runs() {
        let src = super::with_prelude("test-site", "echo $CHROME; echo 'x'; echo $FOOTER;");
        let script = compile("/p.php", &parse_script(&src).unwrap()).unwrap();
        let mut backend = orochi_php::backend::NullBackend;
        let input = orochi_php::vm::RequestInput {
            method: "GET",
            path: "/p.php",
            ..Default::default()
        };
        let result = orochi_php::vm::run_request(&script, &mut backend, &input).unwrap();
        assert_eq!(result.output.status, 200);
        assert!(result.output.body.contains("test-site"));
        assert!(result.output.body.contains("footer"));
        // The prelude is a few hundred instructions of framework work.
        assert!(
            result.stats.instructions > 400,
            "prelude too small: {}",
            result.stats.instructions
        );
    }
}
